#include "core/noc_placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace hybridic::core {
namespace {

TEST(Placement, SingleAttachment) {
  PlacementProblem problem;
  problem.attachment_count = 1;
  const PlacementResult result = place_attachments(problem);
  EXPECT_EQ(result.node_of.size(), 1U);
  EXPECT_EQ(result.cost, 0U);
}

TEST(Placement, AssignmentIsAPermutation) {
  PlacementProblem problem;
  problem.attachment_count = 6;
  problem.traffic = {{0, 1, 100}, {2, 3, 50}, {4, 5, 10}};
  const PlacementResult result = place_attachments(problem);
  std::set<std::uint32_t> nodes(result.node_of.begin(),
                                result.node_of.end());
  EXPECT_EQ(nodes.size(), 6U);  // No two attachments share a router.
  for (const std::uint32_t node : nodes) {
    EXPECT_LT(node, result.mesh.node_count());
  }
}

TEST(Placement, CommunicatingPairEndsUpAdjacent) {
  // The paper's §IV-B requirement: a kernel and the local memory it feeds
  // should land on adjacent routers.
  PlacementProblem problem;
  problem.attachment_count = 4;
  problem.traffic = {{0, 1, 1'000'000}, {2, 3, 1'000'000}};
  const PlacementResult result = place_attachments(problem);
  EXPECT_EQ(result.mesh.distance(result.node_of[0], result.node_of[1]), 1U);
  EXPECT_EQ(result.mesh.distance(result.node_of[2], result.node_of[3]), 1U);
}

TEST(Placement, CostMatchesDefinition) {
  PlacementProblem problem;
  problem.attachment_count = 3;
  problem.traffic = {{0, 1, 10}, {1, 2, 5}};
  const PlacementResult result = place_attachments(problem);
  EXPECT_EQ(result.cost,
            placement_cost(problem, result.mesh, result.node_of));
}

TEST(Placement, BeatsWorstCaseAssignment) {
  PlacementProblem problem;
  problem.attachment_count = 9;
  // A chain 0-1-2-...-8 with heavy traffic.
  for (std::uint32_t i = 0; i + 1 < 9; ++i) {
    problem.traffic.emplace_back(i, i + 1, 1000);
  }
  const PlacementResult result = place_attachments(problem);
  // Identity assignment on a 3x3 mesh: chain cost has distance-3 jumps at
  // row boundaries.
  std::vector<std::uint32_t> identity(9);
  std::iota(identity.begin(), identity.end(), 0);
  const std::uint64_t identity_cost =
      placement_cost(problem, result.mesh, identity);
  EXPECT_LE(result.cost, identity_cost);
  // A perfect snake placement achieves all-adjacent: cost 8000; allow the
  // heuristic one extra hop.
  EXPECT_LE(result.cost, 9000U);
}

TEST(Placement, ZeroAttachmentsRejected) {
  EXPECT_THROW((void)place_attachments(PlacementProblem{}), ConfigError);
}

TEST(Placement, TrafficIndexOutOfRangeRejected) {
  PlacementProblem problem;
  problem.attachment_count = 2;
  problem.traffic = {{0, 5, 10}};
  EXPECT_THROW((void)place_attachments(problem), ConfigError);
}

TEST(Placement, DeterministicAcrossCalls) {
  PlacementProblem problem;
  problem.attachment_count = 7;
  problem.traffic = {{0, 1, 30}, {0, 2, 20}, {3, 4, 50}, {5, 6, 40},
                     {1, 3, 10}};
  const PlacementResult a = place_attachments(problem);
  const PlacementResult b = place_attachments(problem);
  EXPECT_EQ(a.node_of, b.node_of);
  EXPECT_EQ(a.cost, b.cost);
}

/// Over 200 seeded random problems (1-18 attachments, random density,
/// traffic up to 1e9 bytes, repeated pairs) the solver must return exactly
/// the assignments and costs recorded from the greedy + first-improvement
/// hill climb that priced every candidate swap in O(n).
TEST(Placement, SeededProblemsMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 1575361226908203841ULL;
  Rng rng{2024};
  std::string record;
  for (int trial = 0; trial < 200; ++trial) {
    PlacementProblem problem;
    problem.attachment_count = static_cast<std::uint32_t>(rng.between(1, 18));
    const double density = rng.uniform();
    for (std::uint32_t a = 0; a < problem.attachment_count; ++a) {
      for (std::uint32_t b = a + 1; b < problem.attachment_count; ++b) {
        while (rng.chance(density * 0.6)) {
          problem.traffic.emplace_back(a, b, rng.between(1, 1000000000));
        }
      }
    }
    const PlacementResult result = place_attachments(problem);
    EXPECT_EQ(result.cost,
              placement_cost(problem, result.mesh, result.node_of));
    for (const std::uint32_t node : result.node_of) {
      record += std::to_string(node) + ",";
    }
    record += std::to_string(result.cost) + ";";
  }
  EXPECT_EQ(util::fnv1a64(record), kRecordedDigest);
}

/// Reference solver whose results place_attachments must equal: the same
/// greedy (descending total traffic, each attachment on the free node of
/// least cost to its placed peers, lowest node id on ties) and the same
/// first-improvement hill climb, restarting at (0, 1) after every
/// improving swap, with each candidate node and swap priced from
/// Mesh2D::distance over the peers in O(n).
PlacementResult reference_place(const PlacementProblem& problem) {
  const std::uint32_t n = problem.attachment_count;
  std::vector<std::uint64_t> traffic(static_cast<std::size_t>(n) * n, 0);
  for (const auto& [a, b, bytes] : problem.traffic) {
    traffic[a * n + b] += bytes;
    traffic[b * n + a] += bytes;
  }
  const auto at = [&traffic, n](std::uint32_t a, std::uint32_t b) {
    return traffic[a * n + b];
  };
  const auto total_for = [&at, n](std::uint32_t a) {
    std::uint64_t sum = 0;
    for (std::uint32_t b = 0; b < n; ++b) {
      sum += at(a, b);
    }
    return sum;
  };
  const noc::Mesh2D mesh = noc::Mesh2D::fitting(n);

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&total_for](std::uint32_t a, std::uint32_t b) {
                     return total_for(a) > total_for(b);
                   });
  std::vector<bool> node_used(mesh.node_count(), false);
  std::vector<bool> placed(n, false);
  std::vector<std::uint32_t> node_of(n, 0);
  const std::uint32_t center =
      mesh.id_of({mesh.width() / 2, mesh.height() / 2});
  node_of[order[0]] = center;
  node_used[center] = true;
  placed[order[0]] = true;
  for (std::uint32_t k = 1; k < n; ++k) {
    const std::uint32_t item = order[k];
    std::uint64_t best_cost = UINT64_MAX;
    std::uint32_t best_node = 0;
    for (std::uint32_t node = 0; node < mesh.node_count(); ++node) {
      if (node_used[node]) {
        continue;
      }
      std::uint64_t incremental = 0;
      for (std::uint32_t other = 0; other < n; ++other) {
        if (placed[other]) {
          incremental += at(item, other) * mesh.distance(node, node_of[other]);
        }
      }
      if (incremental < best_cost) {
        best_cost = incremental;
        best_node = node;
      }
    }
    node_of[item] = best_node;
    node_used[best_node] = true;
    placed[item] = true;
  }

  const auto swapped_cost = [&](std::uint64_t cost, std::uint32_t a,
                                std::uint32_t b) {
    std::uint64_t removed = 0;
    std::uint64_t added = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (c != a && c != b) {
        removed += at(a, c) * mesh.distance(node_of[a], node_of[c]) +
                   at(b, c) * mesh.distance(node_of[b], node_of[c]);
        added += at(a, c) * mesh.distance(node_of[b], node_of[c]) +
                 at(b, c) * mesh.distance(node_of[a], node_of[c]);
      }
    }
    return cost - removed + added;
  };
  std::uint64_t cost = 0;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      cost += at(a, b) * mesh.distance(node_of[a], node_of[b]);
    }
  }
  for (bool improved = true; improved;) {
    improved = false;
    for (std::uint32_t a = 0; a < n && !improved; ++a) {
      for (std::uint32_t b = a + 1; b < n && !improved; ++b) {
        const std::uint64_t candidate = swapped_cost(cost, a, b);
        if (candidate < cost) {
          std::swap(node_of[a], node_of[b]);
          cost = candidate;
          improved = true;
        }
      }
    }
  }
  return PlacementResult{mesh, std::move(node_of), cost};
}

/// place_attachments against the reference on 300 seeded problems of
/// 1-48 attachments, cycling through four shapes: dense, sparse, repeated
/// pairs and attachments that carry no traffic at all. Traffic is drawn
/// from 1-3 bytes (ties everywhere), up to 1e9 bytes, or up to 2^62 bytes
/// (costs wrap modulo 2^64, where pricing must still be exact).
TEST(Placement, MatchesReferenceSolverOnSeededProblems) {
  Rng rng{1917};
  for (int trial = 0; trial < 300; ++trial) {
    PlacementProblem problem;
    const auto n = static_cast<std::uint32_t>(rng.between(1, 48));
    problem.attachment_count = n;
    const std::uint64_t max_bytes =
        trial % 3 == 0 ? 3 : (trial % 3 == 1 ? 1000000000 : 1ULL << 62);
    const int shape = trial % 4;
    const double density = shape == 0   ? 0.5 + 0.5 * rng.uniform()
                           : shape == 1 ? 0.15 * rng.uniform()
                                        : 0.4 * rng.uniform();
    std::vector<bool> silent(n, false);
    if (shape == 3) {
      for (std::uint32_t a = 0; a < n; ++a) {
        silent[a] = rng.chance(0.4);
      }
    }
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (silent[a] || silent[b] || !rng.chance(density)) {
          continue;
        }
        do {
          problem.traffic.emplace_back(a, b, rng.between(1, max_bytes));
        } while (shape == 2 && rng.chance(0.5));
      }
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", " << n
                                      << " attachments");
    const PlacementResult expected = reference_place(problem);
    const PlacementResult actual = place_attachments(problem);
    ASSERT_EQ(actual.mesh.width(), expected.mesh.width());
    ASSERT_EQ(actual.mesh.height(), expected.mesh.height());
    ASSERT_EQ(actual.node_of, expected.node_of);
    ASSERT_EQ(actual.cost, expected.cost);
  }
}

/// Property sweep: placement cost is bounded below by total traffic (every
/// communicating pair is at distance >= 1) and the bound is achieved when
/// a pairing-only pattern fits the mesh.
class PlacementBound : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PlacementBound, PairTrafficHitsLowerBound) {
  const std::uint32_t pairs = GetParam();
  PlacementProblem problem;
  problem.attachment_count = 2 * pairs;
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < pairs; ++p) {
    problem.traffic.emplace_back(2 * p, 2 * p + 1, 100 + p);
    total += 100 + p;
  }
  const PlacementResult result = place_attachments(problem);
  EXPECT_GE(result.cost, total);
  // The heuristic should keep (almost) every pair adjacent.
  EXPECT_LE(result.cost, total + total / 2);
}

INSTANTIATE_TEST_SUITE_P(PairCounts, PlacementBound,
                         ::testing::Values(1, 2, 3, 4));

/// Exhaustive cross-check: for small instances the heuristic must match
/// the optimum found by trying every assignment of attachments to nodes.
class PlacementVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementVsBruteForce, HeuristicIsNearOptimal) {
  Rng rng{GetParam()};
  PlacementProblem problem;
  problem.attachment_count = 5;  // Mesh2D::fitting(5) = 3x2 -> 6 nodes.
  for (std::uint32_t a = 0; a < 5; ++a) {
    for (std::uint32_t b = a + 1; b < 5; ++b) {
      if (rng.chance(0.6)) {
        problem.traffic.emplace_back(a, b, rng.between(1, 500));
      }
    }
  }
  const PlacementResult heuristic = place_attachments(problem);

  // Brute force over all injective assignments of 5 items to 6 nodes.
  const noc::Mesh2D mesh = heuristic.mesh;
  std::vector<std::uint32_t> nodes(mesh.node_count());
  std::iota(nodes.begin(), nodes.end(), 0);
  std::uint64_t best = UINT64_MAX;
  std::vector<std::uint32_t> perm(nodes);
  std::sort(perm.begin(), perm.end());
  do {
    const std::vector<std::uint32_t> assignment(perm.begin(),
                                                perm.begin() + 5);
    best = std::min(best, placement_cost(problem, mesh, assignment));
  } while (std::next_permutation(perm.begin(), perm.end()));

  EXPECT_GE(heuristic.cost, best);
  // Hill climbing from the greedy seed lands within 15% of optimal on
  // these instance sizes.
  EXPECT_LE(heuristic.cost, best + best * 15 / 100 + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementVsBruteForce,
                         ::testing::Values(3, 7, 12, 25));

}  // namespace
}  // namespace hybridic::core
