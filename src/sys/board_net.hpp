// BoardNetwork: the inter-board serial-link fabric of a multi-FPGA
// platform. Boards are connected chain / ring / near-square-mesh by
// point-to-point serial links with a configurable per-hop latency and
// bandwidth (the two parameters the HPCC b_eff benchmark measures).
// Routing is deterministic BFS shortest-path with lowest-board-id
// tie-break, aware of permanently dead links: on ring/mesh a dead link
// forces a detour (counted as a reroute); a topology the dead links
// disconnect is rejected up front as a ConfigError.
#pragma once

#include <cstdint>
#include <vector>

#include "core/board_partition.hpp"
#include "faults/fault_spec.hpp"
#include "util/units.hpp"

namespace hybridic::sys {

/// One point-to-point inter-board serial link, b_eff style: a transfer of
/// B bytes over one hop costs latency + B / bandwidth.
struct InterBoardLinkConfig {
  double latency_seconds = 1e-6;               ///< Per-hop link latency.
  double bandwidth_bytes_per_second = 1.25e9;  ///< ~10 Gbit/s serial link.
};

class BoardNetwork {
public:
  /// Throws ConfigError on zero boards, a dead link naming non-adjacent
  /// boards, or dead links that disconnect the topology.
  BoardNetwork(std::uint32_t board_count, core::BoardTopology topology,
               InterBoardLinkConfig link,
               const std::vector<faults::LinkDown>& dead_links = {});

  [[nodiscard]] std::uint32_t board_count() const { return board_count_; }
  [[nodiscard]] core::BoardTopology topology() const { return topology_; }
  [[nodiscard]] const InterBoardLinkConfig& link() const { return link_; }

  /// Shortest live path src -> dst as the sequence of boards visited
  /// (src first, dst last; src == dst yields {src}). Deterministic:
  /// BFS expanding lowest board id first. `rerouted`, when non-null, is
  /// set when the fault-free canonical path would have crossed a dead
  /// link (ring/mesh reroute-around-dead-link).
  [[nodiscard]] std::vector<std::uint32_t> route(std::uint32_t src,
                                                 std::uint32_t dst,
                                                 bool* rerouted = nullptr)
      const;

  /// Live hop count src -> dst (route().size() - 1).
  [[nodiscard]] std::uint32_t hop_count(std::uint32_t src,
                                        std::uint32_t dst) const;

  /// Store-and-forward transfer time over `hops` links:
  /// hops * (latency + bytes / bandwidth).
  [[nodiscard]] double transfer_seconds(Bytes bytes,
                                        std::uint32_t hops) const;

  /// Near-square mesh dimensions for `boards` (width >= height).
  [[nodiscard]] static std::pair<std::uint32_t, std::uint32_t> mesh_dims(
      std::uint32_t boards);

private:
  [[nodiscard]] std::vector<std::uint32_t> bfs_route(
      std::uint32_t src, std::uint32_t dst,
      const std::vector<std::vector<std::uint32_t>>& adjacency) const;

  std::uint32_t board_count_;
  core::BoardTopology topology_;
  InterBoardLinkConfig link_;
  std::vector<std::vector<std::uint32_t>> live_;      ///< Dead links removed.
  std::vector<std::vector<std::uint32_t>> pristine_;  ///< Full topology.
};

}  // namespace hybridic::sys
