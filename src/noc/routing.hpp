// Routing on the 2-D mesh.
//
// Dimension-order XY routing is deadlock-free on a mesh and is what FPGA
// mesh NoCs (including the router family the paper adapts) ship by default.
// It is the one routing decision of the platform: the flit-level Network
// and the analytic tier's hop accounting both step with xy_route, so the
// links the simulator congests are the links tier 1 charges.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "noc/topology.hpp"

namespace hybridic::noc {

/// Dimension-order XY: the output port a flit at `at` takes towards `to` —
/// correct X first, then Y, then eject (kLocal).
[[nodiscard]] constexpr PortDir xy_route(Coord at, Coord to) {
  if (at.x != to.x) {
    return at.x < to.x ? PortDir::kEast : PortDir::kWest;
  }
  if (at.y != to.y) {
    return at.y < to.y ? PortDir::kNorth : PortDir::kSouth;
  }
  return PortDir::kLocal;
}

/// The surviving-link view of a mesh with permanently dead links, plus
/// fault-aware next-hop computation.
///
/// When any link is dead, *every* routing decision comes from a BFS
/// shortest-path table on the surviving graph (cached per destination,
/// neighbors visited in fixed port order for determinism). Distance to the
/// destination strictly decreases along every hop, so routes are loop-free
/// and always deliver when a path exists. Partial detours off a
/// dimension-order route could loop, which is why XY routing is
/// bypassed entirely rather than patched around each dead link. The BFS
/// routes are not covered by the dimension-order deadlock-freedom argument;
/// the wait_all watchdog backstops the (rare) adversarial configurations.
class LinkState {
public:
  /// `dead_links` name pairs of adjacent mesh nodes; throws ConfigError
  /// with the offending pair otherwise.
  LinkState(const Mesh2D& mesh,
            const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                dead_links);

  /// Is the link from `node` towards `dir` present and alive?
  [[nodiscard]] bool link_up(std::uint32_t node, PortDir dir) const;

  /// Can `src` still reach `dst` over surviving links?
  [[nodiscard]] bool reachable(std::uint32_t src, std::uint32_t dst) const;

  /// Next hop from `current` towards `destination` over surviving links;
  /// kLocal at the destination, nullopt when disconnected.
  [[nodiscard]] std::optional<PortDir> next_hop(
      std::uint32_t current, std::uint32_t destination) const;

  /// Would the XY path from `src` to `dst` cross a dead link (i.e. does
  /// the fault-aware route detour)?
  [[nodiscard]] bool detours(std::uint32_t src, std::uint32_t dst) const;

  [[nodiscard]] std::size_t dead_link_count() const { return dead_.size(); }

private:
  /// Hop distances of every node to `destination` (BFS, cached).
  const std::vector<std::uint32_t>& distances_to(
      std::uint32_t destination) const;

  Mesh2D mesh_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> dead_;  // (lo, hi)
  mutable std::map<std::uint32_t, std::vector<std::uint32_t>> dist_cache_;
};

}  // namespace hybridic::noc
