// Property tests for the level-one board partitioner: coverage (every
// kernel on exactly one in-range board), the byte-conservation ledger
// (intra + cut == profiled unique bytes), the balance cap, determinism
// (pure function of graph/kernels/boards/seed), and the trivial
// single-board degenerate case.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/board_partition.hpp"
#include "core/kernel_model.hpp"
#include "util/error.hpp"

namespace hybridic::core {
namespace {

apps::SyntheticConfig config_for(std::uint64_t seed,
                                 std::uint32_t kernels = 8) {
  apps::SyntheticConfig config;
  config.kernel_count = kernels;
  config.kernel_edge_probability = 0.45;
  config.seed = seed;
  return config;
}

std::uint64_t profiled_unique_bytes(const prof::CommGraph& graph) {
  std::uint64_t total = 0;
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.producer != edge.consumer) {
      total += edge_volume(edge).count();
    }
  }
  return total;
}

TEST(BoardPartition, EveryKernelOnExactlyOneInRangeBoard) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    const apps::ProfiledApp app = apps::make_synthetic_app(config_for(seed));
    const sys::AppSchedule schedule = app.schedule();
    for (std::uint32_t boards = 2; boards <= 4; ++boards) {
      BoardPartitionInput input;
      input.graph = schedule.graph;
      input.kernels = schedule.specs;
      input.board_count = boards;
      const BoardPartition part = partition_boards(input);

      ASSERT_EQ(part.board_of_kernel.size(), schedule.specs.size());
      for (std::size_t k = 0; k < schedule.specs.size(); ++k) {
        EXPECT_LT(part.board_of_kernel[k], boards);
        const auto it =
            part.board_of_function.find(schedule.specs[k].function);
        ASSERT_NE(it, part.board_of_function.end())
            << "kernel " << schedule.specs[k].name << " unmapped";
        EXPECT_EQ(it->second, part.board_of_kernel[k]);
      }
      // board_of_function lists kernels only — one entry per kernel.
      EXPECT_EQ(part.board_of_function.size(), schedule.specs.size());
    }
  }
}

TEST(BoardPartition, ByteLedgerConservesProfiledTraffic) {
  for (const std::uint64_t seed : {2ULL, 11ULL, 40ULL}) {
    const apps::ProfiledApp app = apps::make_synthetic_app(config_for(seed));
    const sys::AppSchedule schedule = app.schedule();
    const std::uint64_t profiled = profiled_unique_bytes(*schedule.graph);
    for (std::uint32_t boards = 1; boards <= 4; ++boards) {
      BoardPartitionInput input;
      input.graph = schedule.graph;
      input.kernels = schedule.specs;
      input.board_count = boards;
      const BoardPartition part = partition_boards(input);

      std::uint64_t intra = 0;
      for (const Bytes bytes : part.intra_board_bytes) {
        intra += bytes.count();
      }
      EXPECT_EQ(intra + part.cut_bytes.count(), profiled)
          << "boards=" << boards << " seed=" << seed;
      EXPECT_EQ(part.total_bytes.count(), profiled);
    }
  }
}

TEST(BoardPartition, RespectsTheBalanceCap) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const apps::ProfiledApp app =
        apps::make_synthetic_app(config_for(seed, 9));
    const sys::AppSchedule schedule = app.schedule();
    for (std::uint32_t boards = 2; boards <= 4; ++boards) {
      BoardPartitionInput input;
      input.graph = schedule.graph;
      input.kernels = schedule.specs;
      input.board_count = boards;
      const BoardPartition part = partition_boards(input);

      const std::uint64_t cap =
          (schedule.specs.size() + boards - 1) / boards;
      std::vector<std::uint64_t> load(boards, 0);
      for (const std::uint32_t board : part.board_of_kernel) {
        ++load[board];
      }
      for (std::uint32_t b = 0; b < boards; ++b) {
        EXPECT_LE(load[b], cap) << "board " << b << " over the cap";
      }
    }
  }
}

TEST(BoardPartition, DeterministicPureFunctionOfItsInput) {
  const apps::ProfiledApp app = apps::make_synthetic_app(config_for(5));
  const sys::AppSchedule schedule = app.schedule();
  BoardPartitionInput input;
  input.graph = schedule.graph;
  input.kernels = schedule.specs;
  input.board_count = 3;

  const BoardPartition a = partition_boards(input);
  const BoardPartition b = partition_boards(input);
  EXPECT_EQ(a.board_of_kernel, b.board_of_kernel);
  EXPECT_EQ(a.cut_bytes.count(), b.cut_bytes.count());
  EXPECT_EQ(a.refinement_moves, b.refinement_moves);
}

TEST(BoardPartition, SingleBoardIsTheTrivialPartition) {
  const apps::ProfiledApp app = apps::make_synthetic_app(config_for(6));
  const sys::AppSchedule schedule = app.schedule();
  BoardPartitionInput input;
  input.graph = schedule.graph;
  input.kernels = schedule.specs;
  input.board_count = 1;
  const BoardPartition part = partition_boards(input);

  for (const std::uint32_t board : part.board_of_kernel) {
    EXPECT_EQ(board, 0U);
  }
  EXPECT_EQ(part.cut_bytes.count(), 0U);
  EXPECT_EQ(part.intra_board_bytes.size(), 1U);
  EXPECT_EQ(part.intra_board_bytes[0].count(), part.total_bytes.count());
}

TEST(BoardPartition, RejectsZeroBoards) {
  const apps::ProfiledApp app = apps::make_synthetic_app(config_for(8));
  const sys::AppSchedule schedule = app.schedule();
  BoardPartitionInput input;
  input.graph = schedule.graph;
  input.kernels = schedule.specs;
  input.board_count = 0;
  EXPECT_THROW((void)partition_boards(input), ConfigError);
}

TEST(BoardPartition, TopologyNamesRoundTrip) {
  EXPECT_EQ(parse_board_topology("chain"), BoardTopology::kChain);
  EXPECT_EQ(parse_board_topology("ring"), BoardTopology::kRing);
  EXPECT_EQ(parse_board_topology("mesh"), BoardTopology::kMesh);
  EXPECT_STREQ(to_string(BoardTopology::kRing), "ring");
  EXPECT_THROW((void)parse_board_topology("torus"), ConfigError);
}

}  // namespace
}  // namespace hybridic::core
