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

TEST(PlacementAnnealed, NeverWorseThanGreedy) {
  Rng rng{99};
  for (int trial = 0; trial < 5; ++trial) {
    PlacementProblem problem;
    problem.attachment_count = 10;
    for (std::uint32_t a = 0; a < 10; ++a) {
      for (std::uint32_t b = a + 1; b < 10; ++b) {
        if (rng.chance(0.4)) {
          problem.traffic.emplace_back(a, b, rng.between(1, 1000));
        }
      }
    }
    const PlacementResult greedy = place_attachments(problem);
    const PlacementResult annealed =
        place_attachments_annealed(problem, 1234, 5000);
    EXPECT_LE(annealed.cost, greedy.cost);
  }
}

TEST(PlacementAnnealed, DeterministicForSeed) {
  PlacementProblem problem;
  problem.attachment_count = 8;
  problem.traffic = {{0, 7, 100}, {1, 6, 90}, {2, 5, 80}, {3, 4, 70}};
  const PlacementResult a = place_attachments_annealed(problem, 5, 2000);
  const PlacementResult b = place_attachments_annealed(problem, 5, 2000);
  EXPECT_EQ(a.node_of, b.node_of);
}

/// Both solvers price each candidate swap incrementally, from the pairs
/// touching the two swapped attachments. Over 200 seeded random problems
/// (1-18 attachments, random density, traffic up to 1e9 bytes, repeated
/// pairs) they must return exactly the assignments and costs of pricing
/// every candidate with a full recomputation: the digest below was
/// recorded from that implementation.
TEST(Placement, SeededProblemsMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 493879247701662953ULL;
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
    const PlacementResult greedy = place_attachments(problem);
    const PlacementResult annealed =
        place_attachments_annealed(problem, rng.next(), 2000);
    for (const PlacementResult* result : {&greedy, &annealed}) {
      EXPECT_EQ(result->cost,
                placement_cost(problem, result->mesh, result->node_of));
      for (const std::uint32_t node : result->node_of) {
        record += std::to_string(node) + ",";
      }
      record += std::to_string(result->cost) + ";";
    }
  }
  EXPECT_EQ(util::fnv1a64(record), kRecordedDigest);
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
