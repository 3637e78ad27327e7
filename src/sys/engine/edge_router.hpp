// EdgeRouter: per-edge composition of fabric policies by the DesignResult.
// Given a profiled communication edge (producer -> consumer), answers how
// the design moves those bytes — shared local memory (possibly streamed),
// the NoC, or a bus round-trip fallback — at both instance granularity
// (event-driven executors) and function granularity (the analytic
// pipelined executor). This is the classification logic the executors and
// the pipeline model used to each re-implement.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "core/design_result.hpp"
#include "sys/engine/context.hpp"

namespace hybridic::sys::engine {

class EdgeRouter {
public:
  /// Index the design's pairings. `design` may be null (baseline/crossbar
  /// runs): every query then reports "not shared / not on the NoC".
  EdgeRouter(ExecContext& ctx, const core::DesignResult* design);

  // ---- Instance granularity (event-driven executors). ----

  /// Both endpoints attached to an instantiated NoC: producer's kernel
  /// node and consumer's local-memory node.
  [[nodiscard]] bool noc_reachable(std::size_t producer_instance,
                                   std::size_t consumer_instance) const;

  /// Should this edge actually use the NoC under the current fault state?
  /// True when attached and either still connected over surviving links, or
  /// disconnected with NoC->bus degradation disabled (the send is then
  /// attempted, black-holed, and diagnosed by the wait_all watchdog).
  [[nodiscard]] bool noc_usable(std::size_t producer_instance,
                                std::size_t consumer_instance) const;

  /// Attached but fault-disconnected with degradation enabled: the edge
  /// falls back to a bus-DMA round trip (write-back + fetch).
  [[nodiscard]] bool noc_degraded(std::size_t producer_instance,
                                  std::size_t consumer_instance) const;

  /// The shared-memory pairing covering a (producer fn, consumer fn) edge,
  /// or null when the edge is not shared.
  [[nodiscard]] const core::SharedMemoryPairing* shared_pair(
      prof::FunctionId producer, prof::FunctionId consumer) const;

  [[nodiscard]] bool streamed(std::size_t producer_instance,
                              std::size_t consumer_instance) const {
    return streamed_pairs_.count(
               {producer_instance, consumer_instance}) > 0;
  }
  [[nodiscard]] bool duplicated_spec(std::size_t spec) const {
    return duplicated_specs_.count(spec) > 0;
  }
  /// Case-1 host pipelining (§IV-A3): halved fetch/write-back overlap.
  [[nodiscard]] bool host_pipelined(std::size_t instance) const {
    return case1_instances_.count(instance) > 0;
  }

  // ---- Function granularity (analytic pipelined executor). ----

  [[nodiscard]] bool shared_edge(prof::FunctionId producer,
                                 prof::FunctionId consumer) const {
    return shared_by_fn_.count({producer, consumer}) > 0;
  }

  /// Mesh hops from the producer's kernel node to the consumer's memory
  /// node, or 0 when the pair is not NoC-reachable in the design.
  [[nodiscard]] std::uint32_t noc_hops(prof::FunctionId producer,
                                       prof::FunctionId consumer) const;

private:
  ExecContext* ctx_;
  const core::DesignResult* design_;
  std::map<std::pair<prof::FunctionId, prof::FunctionId>,
           const core::SharedMemoryPairing*>
      shared_by_fn_;
  std::set<std::pair<std::size_t, std::size_t>> streamed_pairs_;
  std::set<std::size_t> duplicated_specs_;
  std::set<std::size_t> case1_instances_;
};

}  // namespace hybridic::sys::engine
