// The assembled NoC: a 2-D mesh of wormhole routers plus per-node network
// adapters, driven cycle-by-cycle at the NoC clock (150 MHz in the paper).
//
// The Network implements sim::Ticking and suspends itself whenever no flit
// is in flight, so an idle NoC adds no simulation cost.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "noc/adapter.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::noc {

/// Network-level configuration.
struct NetworkConfig {
  RouterConfig router;
  std::uint32_t max_packet_payload_bytes = 256;
};

/// Aggregate NoC statistics.
struct NetworkStats {
  std::uint64_t flits_ejected = 0;
  std::uint64_t messages_delivered = 0;
};

/// A mesh NoC instance bound to a simulation engine and clock domain. It
/// is the engine's clocked component, so an engine hosts at most one.
class Network : public sim::Ticking {
public:
  Network(std::string name, sim::Engine& engine,
          const sim::ClockDomain& clock, Mesh2D mesh, NetworkConfig config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attach an adapter at mesh node `node`. Each node hosts at most one.
  Adapter& attach_adapter(std::uint32_t node, std::string name,
                          AdapterKind kind);

  /// Send `bytes` from the adapter at `source` to the adapter at
  /// `destination`; `on_delivered` fires when the last flit lands. Returns
  /// the message id. Both nodes must have adapters attached.
  std::uint64_t send(std::uint32_t source, std::uint32_t destination,
                     Bytes bytes, DeliveryCallback on_delivered);

  /// One NoC clock edge: move flits through routers, then inject from
  /// adapters. Returns true while traffic remains.
  bool tick(Picoseconds now) override;

  /// Lower-bound latency for a `bytes` message over `hops` hops on an idle
  /// network (serialization + per-hop pipeline), for analytical estimates.
  [[nodiscard]] Picoseconds ideal_latency(Bytes bytes,
                                          std::uint32_t hops) const;

  [[nodiscard]] const Mesh2D& mesh() const { return mesh_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] Router& router(std::uint32_t node);
  [[nodiscard]] Adapter* adapter(std::uint32_t node);
  [[nodiscard]] const sim::ClockDomain& clock() const { return *clock_; }
  [[nodiscard]] std::uint64_t inflight_messages() const { return inflight_; }

  /// Enable fault injection: builds the surviving-link state from the
  /// injector's dead-link spec (switching all routing to fault-aware BFS
  /// next hops), and wires the CRC/retransmission hooks into every adapter
  /// when the resilience spec enables them. Null disables everything.
  void set_faults(faults::FaultInjector* injector);

  /// True when `src` can still reach `dst` (always true without dead
  /// links). A send over an unreachable pair is recorded as lost and never
  /// delivered — the wait_all watchdog then names the stuck op.
  [[nodiscard]] bool route_exists(std::uint32_t src,
                                  std::uint32_t dst) const;

  /// True when the fault-aware route from `src` to `dst` deviates from the
  /// XY path (i.e. detours around a dead link).
  [[nodiscard]] bool route_detoured(std::uint32_t src,
                                    std::uint32_t dst) const;

private:
  /// Neighbour-table entry for a port that leaves the mesh.
  static constexpr std::uint32_t kNoNeighbor = UINT32_MAX;

  /// One router's flit movement for this tick: one readiness snapshot,
  /// then each output served from a bitmask of the inputs whose ready head
  /// routes there (or from its lock owner).
  void move_router_flits(Router& router_ref, Picoseconds now);
  /// Move the ready front flit of input `in` of router `node` through
  /// output `out`; false when the downstream buffer is full.
  bool forward(std::uint32_t node, PortDir out, PortDir in, Picoseconds now);

  /// Routing decision for `flit` as seen from router `node`, computed once
  /// when a flit is accepted into a buffer (cached in BufferedFlit::route).
  /// With dead links present the decision comes from the fault-aware BFS
  /// table instead of XY routing.
  [[nodiscard]] PortDir route_from(std::uint32_t node,
                                   const Flit& flit) const;

  void wire_adapter_faults(Adapter& adapter_ref);
  void maybe_corrupt(Flit& flit, std::uint32_t node, Picoseconds now);
  /// CRC-failure decision for a packet ending in `tail` at `dest_node`.
  bool handle_corrupt_packet(std::uint32_t dest_node, const Flit& tail,
                             std::uint64_t payload_flits);

  std::string name_;
  sim::Engine* engine_;
  const sim::ClockDomain* clock_;
  Mesh2D mesh_;
  NetworkConfig config_;

  /// Per node, its coordinates and its neighbour through each mesh port
  /// (kNoNeighbor off the edge), so no hop divides by the mesh width.
  std::vector<Coord> coords_;
  std::vector<std::array<std::uint32_t, 4>> neighbors_;
  /// Time a flit spends in one router's pipeline (`pipeline_cycles`).
  Picoseconds hop_span_{0};

  std::vector<Router> routers_;
  std::vector<std::unique_ptr<Adapter>> adapters_;  // indexed by node id
  /// Node ids with adapters attached, ascending — the per-tick injection
  /// sweep walks only these instead of every mesh node.
  std::vector<std::uint32_t> adapter_nodes_;
  /// Per-input current output assignment for in-flight packets.
  std::vector<std::array<std::optional<PortDir>, kPortCount>> in_route_;

  std::uint64_t next_message_id_ = 1;
  std::uint64_t inflight_ = 0;
  NetworkStats stats_;

  faults::FaultInjector* faults_ = nullptr;
  std::unique_ptr<LinkState> link_state_;
  /// Retransmission attempts per (source node, packet id); entries retire
  /// when the packet finally completes clean or exhausts its budget.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
      retransmit_attempts_;
};

}  // namespace hybridic::noc
