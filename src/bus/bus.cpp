#include "bus/bus.hpp"

#include <utility>

#include "faults/injector.hpp"
#include "util/error.hpp"

namespace hybridic::bus {

Bus::Bus(std::string name, sim::Engine& engine, const sim::ClockDomain& clock,
         BusConfig config)
    : name_(std::move(name)),
      engine_(&engine),
      clock_(&clock),
      config_(config),
      queues_(config.master_count) {
  require(config.width_bytes > 0, "bus width must be non-zero");
  require(config.max_burst_beats > 0, "bus burst length must be non-zero");
  require(config.master_count > 0, "bus needs at least one master");
}

namespace {

std::uint64_t data_beats(const BusConfig& config, Bytes bytes) {
  return (bytes.count() + config.width_bytes - 1) / config.width_bytes;
}

std::uint64_t burst_count(const BusConfig& config, Bytes bytes) {
  const std::uint64_t beats = data_beats(config, bytes);
  if (beats == 0) {
    return 1;  // A zero-byte transaction still runs an address phase.
  }
  return (beats + config.max_burst_beats - 1) / config.max_burst_beats;
}

}  // namespace

Picoseconds uncontended_time(const BusConfig& config, Picoseconds period,
                             Bytes bytes) {
  const std::uint64_t cycles =
      config.arbitration_cycles.count() +
      burst_count(config, bytes) * config.address_cycles.count() +
      data_beats(config, bytes);
  return Picoseconds{cycles * period.count()};
}

double theta_seconds_per_byte(const BusConfig& config, Picoseconds period,
                              Bytes bytes) {
  require(bytes.count() > 0, "theta needs a non-zero reference size");
  return uncontended_time(config, period, bytes).seconds() /
         static_cast<double>(bytes.count());
}

Picoseconds Bus::uncontended_time(Bytes bytes) const {
  return bus::uncontended_time(config_, clock_->period(), bytes);
}

void Bus::submit(BusRequest request) {
  require(request.master < config_.master_count, "bus master out of range");
  queues_[request.master].push_back(std::move(request));
  if (!busy_) {
    try_grant();
  }
}

void Bus::try_grant() {
  // Fixed priority: the lowest-numbered master with a pending request.
  std::uint32_t winner = 0;
  while (winner < config_.master_count && queues_[winner].empty()) {
    ++winner;
  }
  if (winner == config_.master_count) {
    return;
  }
  BusRequest grant = std::move(queues_[winner].front());
  queues_[winner].pop_front();

  Picoseconds start = clock_->align_up(engine_->now());
  if (faults_ != nullptr &&
      faults_->draw(faults::SiteKind::kBus, winner,
                    faults_->spec().bus_stall_rate)) {
    const Cycles stall{faults_->spec().bus_stall_cycles};
    start += clock_->span(stall);
    ++faults_->stats().bus_stalls;
    faults_->record(faults::FaultKind::kBusStall, start.seconds(),
                    grant.bytes.count(),
                    name_ + ": arbiter stalled master " +
                        std::to_string(winner) + " for " +
                        std::to_string(stall.count()) + " cycles");
  }
  const Picoseconds occupied = uncontended_time(grant.bytes);
  const Picoseconds release = start + occupied;
  const Picoseconds done = release + grant.extra_latency;

  busy_ = true;
  busy_time_ += occupied;
  bytes_transferred_ += grant.bytes;
  ++transactions_;

  // The bus frees at `release`; the requester learns of completion once the
  // slave-side latency has also elapsed.
  engine_->schedule_at(release, [this] {
    busy_ = false;
    try_grant();
  });
  if (grant.on_complete) {
    engine_->schedule_at(
        done, [cb = std::move(grant.on_complete), done] { cb(done); });
  }
}

}  // namespace hybridic::bus
