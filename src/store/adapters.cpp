#include "store/adapters.hpp"

#include <sstream>

#include "store/codec.hpp"
#include "util/text.hpp"

namespace hybridic::store {

ProfileStoreL2::ProfileStoreL2(std::shared_ptr<Store> backing)
    : backing_(std::move(backing)) {}

std::string ProfileStoreL2::store_key(const std::string& l1_key) {
  return "profile/rev=" + std::to_string(kEngineRevision) + "/" + l1_key;
}

std::shared_ptr<const apps::ProfiledApp> ProfileStoreL2::load(
    const std::string& key) {
  const std::optional<std::string> payload = backing_->get(store_key(key));
  if (!payload.has_value()) {
    return nullptr;
  }
  return decode_profile(*payload);  // nullptr on damage — a miss.
}

void ProfileStoreL2::store(const std::string& key,
                           const apps::ProfiledApp& app) {
  try {
    backing_->put(store_key(key), encode_profile(app));
  } catch (...) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t ProfileStoreL2::store_failures() const {
  return store_failures_.load(std::memory_order_relaxed);
}

std::string estimate_scope(const sys::PlatformConfig& platform,
                           const tiers::TierCalibration& calibration) {
  // Everything analytic_estimate() and the band calibration read. Order
  // and formatting are part of the persistent format: change them (or add
  // a field) only together with a kEngineRevision bump.
  std::ostringstream text;
  text << "host=" << platform.host_clock.hertz()
       << ";kernel=" << platform.kernel_clock.hertz()
       << ";bus=" << platform.bus_clock.hertz()
       << ";noc=" << platform.noc_clock.hertz()
       << ";busw=" << platform.bus.width_bytes
       << ";burst=" << platform.bus.max_burst_beats
       << ";arb=" << platform.bus.arbitration_cycles.count()
       << ";addr=" << platform.bus.address_cycles.count()
       << ";masters=" << platform.bus.master_count
       << ";dmasetup=" << platform.dma.setup_cycles.count()
       << ";dmachunk=" << platform.dma.chunk_bytes
       << ";sdramw=" << platform.sdram.width_bytes
       << ";sdramlat=" << platform.sdram.access_latency.count()
       << ";payload=" << platform.noc.max_packet_payload_bytes
       << ";routing=XY"  // The one mesh routing (noc::xy_route).
       << ";rbuf=" << platform.noc.router.buffer_flits
       << ";rpipe=" << platform.noc.router.pipeline_cycles
       << ";bram=" << platform.bram_capacity.count()
       << ";bramw=" << platform.bram_port_width_bytes
       << ";ostream=" << util::hexf(platform.stream_overhead_seconds)
       << ";odup=" << util::hexf(platform.duplication_overhead_seconds)
       << ";bband=" << util::hexf(calibration.baseline_band)
       << ";dband=" << util::hexf(calibration.designed_band);
  // Hash down to a short stable token — the full text stays debuggable in
  // this function, the key stays short on disk.
  return util::hex16(fnv1a64(text.str()));
}

EstimateStoreL2::EstimateStoreL2(std::shared_ptr<Store> backing,
                                 std::string scope)
    : backing_(std::move(backing)), scope_(std::move(scope)) {}

std::string EstimateStoreL2::store_key(const std::string& scope,
                                       std::uint64_t key) {
  return "estimate/rev=" + std::to_string(kEngineRevision) +
         "/scope=" + scope + "/sig=" + util::hex16(key);
}

std::optional<tiers::TierEstimate> EstimateStoreL2::load(std::uint64_t key) {
  const std::optional<std::string> payload =
      backing_->get(store_key(scope_, key));
  if (!payload.has_value()) {
    return std::nullopt;
  }
  return decode_estimate(*payload);  // nullopt on damage — a miss.
}

void EstimateStoreL2::store(std::uint64_t key,
                            const tiers::TierEstimate& estimate) {
  try {
    backing_->put(store_key(scope_, key), encode_estimate(estimate));
  } catch (...) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t EstimateStoreL2::store_failures() const {
  return store_failures_.load(std::memory_order_relaxed);
}

}  // namespace hybridic::store
