// Placement of NoC attachments onto mesh routers.
//
// §IV-B: "a kernel and its communicating local memories should be mapped to
// the NoC routers in such a way that the distance of these routers is
// shortest" — ideally adjacent. We minimize Σ traffic(a,b) · hops(a,b) with
// a deterministic greedy construction followed by pairwise-swap hill
// climbing (optimal for the small attachment counts real designs produce).
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "noc/topology.hpp"

namespace hybridic::core {

/// Traffic between attachment indices (bytes; direction-agnostic cost).
struct PlacementProblem {
  std::uint32_t attachment_count = 0;
  /// (a, b, bytes) with a < b; absent pairs carry no traffic.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
      traffic;
};

/// Result: attachment index -> mesh node id on the fitted mesh.
struct PlacementResult {
  noc::Mesh2D mesh{1, 1};
  std::vector<std::uint32_t> node_of;
  std::uint64_t cost = 0;  ///< Σ bytes · hops.
};

/// Cost of a candidate assignment.
[[nodiscard]] std::uint64_t placement_cost(
    const PlacementProblem& problem, const noc::Mesh2D& mesh,
    const std::vector<std::uint32_t>& node_of);

/// Greedy + hill-climb placement (deterministic).
[[nodiscard]] PlacementResult place_attachments(
    const PlacementProblem& problem);

}  // namespace hybridic::core
