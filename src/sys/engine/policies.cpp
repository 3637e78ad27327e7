#include "sys/engine/policies.hpp"

#include <utility>
#include <vector>

#include "faults/injector.hpp"
#include "noc/flit.hpp"
#include "noc/network.hpp"

namespace hybridic::sys::engine {

void NocPolicy::send(std::uint32_t step, std::string label,
                     std::uint32_t source, std::uint32_t destination,
                     Bytes bytes, Picoseconds when, NocSendOp& send,
                     std::function<void(Picoseconds)> on_delivered) {
  send.op.label = std::move(label);
  send.step = step;
  send.trace = trace_;
  send.when = when;
  send.on_delivered = std::move(on_delivered);
  noc::Network* network = ctx_->platform().network();
  // Fault-aware rerouting: when a surviving-path detour replaces the
  // dimension-order route, annotate the trace once per (src, dst) pair.
  if (network != nullptr && network->route_detoured(source, destination) &&
      rerouted_logged_.insert({source, destination}).second) {
    if (faults::FaultInjector* injector =
            ctx_->platform().fault_injector()) {
      ++injector->stats().noc_reroutes;
    }
    if (trace_ != nullptr) {
      trace_->record({EventKind::kReroute, Fabric::kNoc, step, 0,
                      when.seconds(), when.seconds(),
                      send.op.label + " reroute " + std::to_string(source) +
                          "->" + std::to_string(destination) +
                          " around dead link"});
    }
  }
  ctx_->platform().engine().schedule_at(
      when, [network, source, destination, bytes, &send] {
        network->send(source, destination, bytes,
                      [&send, bytes](std::uint64_t, Bytes, Picoseconds at) {
                        send.op.done = true;
                        send.op.at = at;
                        if (send.trace != nullptr) {
                          send.trace->record(
                              {EventKind::kNocTransfer, Fabric::kNoc,
                               send.step, bytes.count(), send.when.seconds(),
                               at.seconds(), send.op.label});
                        }
                        if (send.on_delivered) {
                          send.on_delivered(at);
                        }
                      });
      });
}

double NocPolicy::idle_latency_seconds(const PlatformConfig& config,
                                       Bytes bytes, std::uint32_t hops) {
  const std::uint64_t cycles = noc::idle_latency_cycles(
      bytes.count(), hops, config.noc.max_packet_payload_bytes,
      config.noc.router.pipeline_cycles);
  return static_cast<double>(cycles) /
         static_cast<double>(config.noc_clock.hertz());
}

CrossbarPolicy::CrossbarPolicy(ExecContext& ctx, ExecTrace* trace)
    : trace_(trace) {
  std::vector<mem::Bram*> memories;
  for (std::size_t s = 0; s < ctx.instance_count(); ++s) {
    memories.push_back(&ctx.platform().bram(s));
  }
  crossbar_ = std::make_unique<mem::FullCrossbar>("xbar", memories);
}

Picoseconds CrossbarPolicy::stream(std::uint32_t step,
                                   const std::string& label,
                                   std::uint32_t source,
                                   std::uint32_t target, Picoseconds start,
                                   Bytes bytes) {
  const Picoseconds done = crossbar_->access(source, target, start, bytes);
  if (trace_ != nullptr) {
    trace_->record({EventKind::kNocTransfer, Fabric::kCrossbar, step,
                    bytes.count(), start.seconds(), done.seconds(), label});
  }
  return done;
}

Picoseconds InterBoardLinkPolicy::transfer(std::uint32_t step,
                                           const std::string& label,
                                           std::uint32_t src,
                                           std::uint32_t dst, Bytes bytes,
                                           Picoseconds ready) {
  bool rerouted = false;
  const std::vector<std::uint32_t> path = net_->route(src, dst, &rerouted);
  if (rerouted && rerouted_logged_.insert({src, dst}).second) {
    ++reroutes_;
    if (trace_ != nullptr) {
      trace_->record({EventKind::kReroute, Fabric::kInterBoard, step, 0,
                      ready.seconds(), ready.seconds(),
                      label + " board reroute " + std::to_string(src) +
                          "->" + std::to_string(dst) +
                          " around dead link"});
    }
  }
  // Per-hop store-and-forward cost in integer picoseconds, so link
  // reservations are exact and deterministic.
  const Picoseconds hop_cost = to_picoseconds(
      net_->link().latency_seconds +
      static_cast<double>(bytes.count()) /
          net_->link().bandwidth_bytes_per_second);
  Picoseconds at = ready;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    at = links_[{path[i], path[i + 1]}].reserve(at, hop_cost);
  }
  ++transfers_;
  bytes_moved_ += bytes.count();
  if (trace_ != nullptr && path.size() > 1) {
    trace_->record({EventKind::kNocTransfer, Fabric::kInterBoard, step,
                    bytes.count(), ready.seconds(), at.seconds(),
                    label + " link " + std::to_string(src) + "->" +
                        std::to_string(dst)});
  }
  return at;
}

}  // namespace hybridic::sys::engine
