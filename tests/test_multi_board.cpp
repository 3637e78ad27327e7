// Multi-board stack tests: BoardNetwork routing (chain/ring/mesh, dead
// links, reroutes), the boards=1 degenerate identity against the
// single-board engine, a real 2-board chain run, the multi-board analytic
// tier, sampler RNG-stream preservation, the reproducer board-field round
// trip, and campaign determinism across thread counts with the board
// dimension swept.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "core/multi_board_design.hpp"
#include "dse/campaign.hpp"
#include "dse/reproducer.hpp"
#include "sys/board_net.hpp"
#include "sys/experiment.hpp"
#include "sys/multi_board.hpp"
#include "tiers/analytic.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

apps::SyntheticConfig synthetic_config(std::uint64_t seed) {
  apps::SyntheticConfig config;
  config.kernel_count = 6;
  config.kernel_edge_probability = 0.5;
  config.seed = seed;
  return config;
}

/// `count` default boards on a healthy chain.
sys::MultiBoardConfig chain_of(std::uint32_t count) {
  sys::MultiBoardConfig config;
  config.board_count = count;
  return config;
}

// ---------------------------------------------------------------------------
// BoardNetwork routing.
// ---------------------------------------------------------------------------

TEST(BoardNetwork, ChainRoutesWalkEveryIntermediateBoard) {
  const sys::BoardNetwork net{4, core::BoardTopology::kChain, {}};
  EXPECT_EQ(net.route(0, 3), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(net.hop_count(0, 3), 3U);
  EXPECT_EQ(net.hop_count(2, 2), 0U);
}

TEST(BoardNetwork, RingTakesTheWrapAroundShortcut) {
  const sys::BoardNetwork net{4, core::BoardTopology::kRing, {}};
  EXPECT_EQ(net.hop_count(0, 3), 1U);
  EXPECT_EQ(net.hop_count(0, 2), 2U);
}

TEST(BoardNetwork, MeshIsNearSquare) {
  EXPECT_EQ(sys::BoardNetwork::mesh_dims(4),
            (std::pair<std::uint32_t, std::uint32_t>{2, 2}));
  const sys::BoardNetwork net{4, core::BoardTopology::kMesh, {}};
  // 2x2 row-major: 0-1, 0-2, 1-3, 2-3; opposite corners are two hops.
  EXPECT_EQ(net.hop_count(0, 3), 2U);
  EXPECT_EQ(net.hop_count(1, 2), 2U);
}

TEST(BoardNetwork, TransferTimeIsStoreAndForwardPerHop) {
  sys::InterBoardLinkConfig link;
  link.latency_seconds = 1e-6;
  link.bandwidth_bytes_per_second = 1e9;
  const sys::BoardNetwork net{3, core::BoardTopology::kChain, link};
  const double one_hop = net.transfer_seconds(Bytes{1000}, 1);
  EXPECT_DOUBLE_EQ(one_hop, 1e-6 + 1000.0 / 1e9);
  EXPECT_DOUBLE_EQ(net.transfer_seconds(Bytes{1000}, 2), 2.0 * one_hop);
}

TEST(BoardNetwork, DeadLinkOnAChainDisconnectsAndIsRejected) {
  EXPECT_THROW(
      (sys::BoardNetwork{3, core::BoardTopology::kChain, {}, {{0, 1}}}),
      ConfigError);
}

TEST(BoardNetwork, RingReroutesAroundADeadLink) {
  const sys::BoardNetwork net{4, core::BoardTopology::kRing, {}, {{0, 1}}};
  bool rerouted = false;
  const std::vector<std::uint32_t> path = net.route(0, 1, &rerouted);
  EXPECT_TRUE(rerouted);
  EXPECT_EQ(path, (std::vector<std::uint32_t>{0, 3, 2, 1}));
  // The untouched direction keeps its canonical path, no reroute flagged.
  rerouted = false;
  EXPECT_EQ(net.route(0, 3, &rerouted),
            (std::vector<std::uint32_t>{0, 3}));
  EXPECT_FALSE(rerouted);
}

// ---------------------------------------------------------------------------
// boards == 1 degenerates to the single-board engine, bit for bit.
// ---------------------------------------------------------------------------

TEST(MultiBoardRun, SingleBoardIsBitIdenticalToRunDesigned) {
  const apps::ProfiledApp app =
      apps::make_synthetic_app(synthetic_config(31));
  const sys::AppSchedule schedule = app.schedule();

  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = 1;
  const core::MultiBoardDesign multi = core::design_multi_board(input);
  ASSERT_EQ(multi.boards.size(), 1U);
  EXPECT_TRUE(multi.cut_edges.empty());

  const core::DesignResult single = core::design_interconnect(input.base);
  const sys::RunResult expect =
      sys::run_designed(schedule, single, sys::PlatformConfig{});
  const sys::MultiBoardRunResult got = sys::run_designed_multi(
      schedule, multi, chain_of(1));

  EXPECT_EQ(got.run.total_seconds, expect.total_seconds);
  EXPECT_EQ(got.run.kernel_seconds(), expect.kernel_seconds());
  EXPECT_EQ(got.inter_board_transfers, 0U);
  EXPECT_EQ(got.inter_board_bytes, 0U);
  EXPECT_EQ(got.board_link_reroutes, 0U);
}

// ---------------------------------------------------------------------------
// A real 2-board chain run.
// ---------------------------------------------------------------------------

TEST(MultiBoardRun, TwoBoardChainMovesCutBytesOverTheLinks) {
  const apps::ProfiledApp app =
      apps::make_synthetic_app(synthetic_config(13));
  const sys::AppSchedule schedule = app.schedule();

  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = 2;
  const core::MultiBoardDesign multi = core::design_multi_board(input);
  ASSERT_EQ(multi.board_count(), 2U);

  const sys::MultiBoardRunResult run = sys::run_designed_multi(
      schedule, multi, chain_of(2));
  EXPECT_GT(run.run.total_seconds, 0.0);
  EXPECT_EQ(run.board_end_seconds.size(), 2U);
  if (!multi.cut_edges.empty()) {
    EXPECT_GT(run.inter_board_transfers, 0U);
    EXPECT_GT(run.inter_board_bytes, 0U);
    EXPECT_GT(run.inter_board_busy_seconds, 0.0);
  }
  // Healthy network: nothing to reroute around.
  EXPECT_EQ(run.board_link_reroutes, 0U);

  // Re-running is deterministic to the bit.
  const sys::MultiBoardRunResult again = sys::run_designed_multi(
      schedule, multi, chain_of(2));
  EXPECT_EQ(again.run.total_seconds, run.run.total_seconds);
  EXPECT_EQ(again.inter_board_bytes, run.inter_board_bytes);
}

// ---------------------------------------------------------------------------
// Analytic tier.
// ---------------------------------------------------------------------------

TEST(MultiBoardAnalytic, SingleBoardEstimateMatchesTheSingleBoardTier) {
  const apps::ProfiledApp app =
      apps::make_synthetic_app(synthetic_config(47));
  const sys::AppSchedule schedule = app.schedule();
  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = 1;
  const core::MultiBoardDesign multi = core::design_multi_board(input);

  const tiers::TierEstimate single = tiers::analytic_estimate(
      schedule, multi.boards.at(0), sys::PlatformConfig{},
      input.base.theta.seconds_per_byte);
  const tiers::TierEstimate got = tiers::analytic_estimate_multi(
      schedule, multi, chain_of(1),
      input.base.theta.seconds_per_byte);

  EXPECT_EQ(got.solution_tag, single.solution_tag);
  EXPECT_EQ(got.designed_kernel_seconds, single.designed_kernel_seconds);
  EXPECT_EQ(got.designed_lower_seconds, single.designed_lower_seconds);
  EXPECT_EQ(got.designed_upper_seconds, single.designed_upper_seconds);
  EXPECT_EQ(got.inter_board_edges, 0U);
  EXPECT_EQ(got.inter_board_seconds, 0.0);
}

TEST(MultiBoardAnalytic, CutEdgesProduceASerializedInterBoardTerm) {
  const apps::ProfiledApp app =
      apps::make_synthetic_app(synthetic_config(13));
  const sys::AppSchedule schedule = app.schedule();
  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = 2;
  const core::MultiBoardDesign multi = core::design_multi_board(input);
  ASSERT_FALSE(multi.cut_edges.empty());

  const tiers::TierEstimate est = tiers::analytic_estimate_multi(
      schedule, multi, chain_of(2),
      input.base.theta.seconds_per_byte);
  EXPECT_EQ(est.inter_board_edges, multi.cut_edges.size());
  EXPECT_EQ(est.inter_board_bytes, multi.partition.cut_bytes.count());
  EXPECT_GT(est.inter_board_seconds, 0.0);
  EXPECT_LE(est.designed_lower_seconds, est.designed_kernel_seconds);
  EXPECT_LE(est.designed_kernel_seconds, est.designed_upper_seconds);
}

// ---------------------------------------------------------------------------
// Sampler: the single-board RNG stream is untouched by the board
// dimension, so every pre-multi-board campaign replays byte-identically.
// ---------------------------------------------------------------------------

TEST(MultiBoardSampling, SingleBoardStreamIsPreserved) {
  dse::SweepSpace single;
  dse::SweepSpace multi;
  multi.max_boards = 4;
  multi.board_topologies = {"chain", "ring", "mesh"};
  ASSERT_FALSE(single.multi_board());
  ASSERT_TRUE(multi.multi_board());

  for (std::uint64_t index = 0; index < 32; ++index) {
    const apps::SyntheticConfig a = dse::sample_config(single, 3, index);
    const apps::SyntheticConfig b = dse::sample_config(multi, 3, index);
    EXPECT_EQ(a.board_count, 1U);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.kernel_count, b.kernel_count);
    EXPECT_EQ(a.kernel_edge_probability, b.kernel_edge_probability);
    EXPECT_EQ(a.min_edge_bytes, b.min_edge_bytes);
    EXPECT_EQ(a.max_edge_bytes, b.max_edge_bytes);
    EXPECT_EQ(a.min_work_units, b.min_work_units);
    EXPECT_EQ(a.max_work_units, b.max_work_units);
    EXPECT_GE(b.board_count, 1U);
    EXPECT_LE(b.board_count, 4U);
    EXPECT_TRUE(b.board_topology == "chain" || b.board_topology == "ring" ||
                b.board_topology == "mesh")
        << b.board_topology;
  }
}

// ---------------------------------------------------------------------------
// Reproducer round trip.
// ---------------------------------------------------------------------------

TEST(MultiBoardReproducer, BoardFieldsRoundTripAndStayOptional) {
  dse::Reproducer r;
  r.schema = 1;
  r.oracle = "board-byte-conservation";
  r.expect = dse::Expectation::kFail;
  r.message = "ledger broken";
  r.config = synthetic_config(99);
  r.config.board_count = 3;
  r.config.board_topology = "ring";

  const std::string json = dse::to_json(r);
  EXPECT_NE(json.find("\"board_count\": 3"), std::string::npos);
  const dse::Reproducer back = dse::parse_reproducer(json);
  EXPECT_EQ(back.config.board_count, 3U);
  EXPECT_EQ(back.config.board_topology, "ring");
  EXPECT_EQ(back.config.seed, r.config.seed);

  // Single-board reproducers keep the historical schema: no board fields.
  r.config.board_count = 1;
  const std::string single_json = dse::to_json(r);
  EXPECT_EQ(single_json.find("board_count"), std::string::npos);
  EXPECT_EQ(single_json.find("board_topology"), std::string::npos);
  const dse::Reproducer single = dse::parse_reproducer(single_json);
  EXPECT_EQ(single.config.board_count, 1U);
  EXPECT_EQ(single.config.board_topology, "chain");
}

// ---------------------------------------------------------------------------
// Campaign determinism with the board dimension swept.
// ---------------------------------------------------------------------------

TEST(MultiBoardCampaign, CsvIsByteIdenticalAcrossThreadCounts) {
  dse::CampaignOptions options;
  options.count = 8;
  options.campaign_seed = 5;
  options.space.max_kernels = 6;
  options.space.max_boards = 3;
  options.space.board_topologies = {"ring"};

  options.threads = 1;
  const dse::CampaignResult serial = dse::run_campaign(options);
  options.threads = 4;
  const dse::CampaignResult parallel = dse::run_campaign(options);

  EXPECT_TRUE(serial.multi_board);
  const std::string csv = dse::campaign_csv(serial);
  EXPECT_EQ(csv, dse::campaign_csv(parallel));
  // The multi-board schema is present: board columns + the ninth oracle.
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find(",boards,board_topology,cut_bytes"),
            std::string::npos);
  EXPECT_NE(header.find("board-byte-conservation"), std::string::npos);
}

}  // namespace
}  // namespace hybridic
