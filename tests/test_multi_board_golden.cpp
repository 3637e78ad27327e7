// Goldens of the multi-board run: two synthetic applications on four
// inter-board platforms (a healthy 2-board chain, a 3-board ring with its
// 0-1 link dead, a 2x2 mesh with its 0-1 link dead, and that mesh again
// with on-board faults injected), pinned step by step.
//
// Each scenario writes every StepTiming, the run totals, the per-board end
// times, the inter-board transfer/byte/busy/reroute counters, every fault
// counter and the Chrome-trace JSON of the merged trace. Only
// chronological exports are compared: the raw event order within a step
// (its link events against its compute event) is not part of the contract.
// Regenerate after an intentional model change with
//   HYBRIDIC_UPDATE_MULTI_BOARD_GOLDENS=1 ctest -R MultiBoardGolden
// and review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "apps/synthetic.hpp"
#include "core/multi_board_design.hpp"
#include "faults/fault_spec.hpp"
#include "sys/engine/chrome_trace.hpp"
#include "sys/experiment.hpp"
#include "sys/multi_board.hpp"
#include "util/text.hpp"

namespace hybridic {
namespace {

using util::decimal17;

std::string goldens_dir() {
  return std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/multi_board";
}

bool update_mode() {
  const char* flag = std::getenv("HYBRIDIC_UPDATE_MULTI_BOARD_GOLDENS");
  return flag != nullptr && std::string{flag} == "1";
}

/// An inter-board platform: topology, board count, whether the link
/// between boards 0 and 1 is dead, and the per-event rate of every
/// on-board fault class (0 for none).
struct BoardSetup {
  const char* name;
  core::BoardTopology topology;
  std::uint32_t boards;
  bool link_0_1_dead;
  double fault_rate;
};

struct Scenario {
  std::uint64_t app_seed;
  BoardSetup setup;

  [[nodiscard]] std::string name() const {
    return "synthetic_s" + std::to_string(app_seed) + "_" + setup.name;
  }
};

void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name();
}

sys::MultiBoardConfig board_config(const BoardSetup& setup) {
  sys::MultiBoardConfig config;
  if (setup.fault_rate > 0.0) {
    config.board.faults = faults::FaultSpec::at_rate(setup.fault_rate, 5);
  }
  config.board_count = setup.boards;
  config.topology = setup.topology;
  if (setup.link_0_1_dead) {
    config.dead_board_links.push_back({0, 1});
  }
  return config;
}

/// Runs `scenario` and renders everything it pins.
std::string run_scenario(const Scenario& scenario) {
  apps::SyntheticConfig app_config;
  app_config.kernel_count = 6;
  app_config.kernel_edge_probability = 0.5;
  app_config.seed = scenario.app_seed;
  const apps::ProfiledApp app = apps::make_synthetic_app(app_config);
  const sys::AppSchedule schedule = app.schedule();

  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = scenario.setup.boards;
  const core::MultiBoardDesign design = core::design_multi_board(input);
  const sys::MultiBoardRunResult result = sys::run_designed_multi(
      schedule, design, board_config(scenario.setup));
  const sys::RunResult& run = result.run;

  std::ostringstream out;
  out << "scenario " << scenario.name() << "\n";
  out << "cut_edges " << design.cut_edges.size() << "\n";
  for (const sys::StepTiming& step : run.steps) {
    out << "step " << step.name << " kernel=" << step.is_kernel
        << " start=" << decimal17(step.start_seconds)
        << " done=" << decimal17(step.done_seconds)
        << " compute=" << decimal17(step.compute_seconds)
        << " comm=" << decimal17(step.comm_seconds) << "\n";
  }
  out << "total " << decimal17(run.total_seconds)
      << " host=" << decimal17(run.host_seconds)
      << " kernel_compute=" << decimal17(run.kernel_compute_seconds)
      << " kernel_comm=" << decimal17(run.kernel_comm_seconds) << "\n";
  for (std::size_t b = 0; b < result.board_end_seconds.size(); ++b) {
    out << "board " << b << " end=" << decimal17(result.board_end_seconds[b])
        << "\n";
  }
  out << "inter_board transfers=" << result.inter_board_transfers
      << " bytes=" << result.inter_board_bytes
      << " busy=" << decimal17(result.inter_board_busy_seconds)
      << " reroutes=" << result.board_link_reroutes << "\n";
  const faults::FaultStats& f = run.fault_stats;
  out << "faults flits_corrupted=" << f.flits_corrupted
      << " packets_retransmitted=" << f.packets_retransmitted
      << " retransmit_give_ups=" << f.retransmit_give_ups
      << " messages_lost=" << f.messages_lost
      << " bus_errors=" << f.bus_errors << " bus_retries=" << f.bus_retries
      << " bus_stalls=" << f.bus_stalls << " mem_bitflips=" << f.mem_bitflips
      << " corrupted_bytes=" << f.corrupted_bytes
      << " degraded_edges=" << f.degraded_edges
      << " noc_reroutes=" << f.noc_reroutes
      << " board_link_reroutes=" << f.board_link_reroutes << "\n";
  out << sys::engine::chrome_trace_json(run.trace, run.system_name);
  return out.str();
}

class MultiBoardGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(MultiBoardGolden, MatchesRecordedRun) {
  const Scenario& scenario = GetParam();
  const std::string produced = run_scenario(scenario);
  const std::string path = goldens_dir() + "/" + scenario.name() + ".txt";
  if (update_mode()) {
    std::filesystem::create_directories(goldens_dir());
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << path
                         << " missing; regenerate with "
                            "HYBRIDIC_UPDATE_MULTI_BOARD_GOLDENS=1";
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(produced, golden) << scenario.name() << " drifted";
}

constexpr BoardSetup kChain2{"chain2", core::BoardTopology::kChain, 2,
                             false, 0.0};
constexpr BoardSetup kRing3{"ring3_dead01", core::BoardTopology::kRing, 3,
                            true, 0.0};
constexpr BoardSetup kMesh4{"mesh4_dead01", core::BoardTopology::kMesh, 4,
                            true, 0.0};
constexpr BoardSetup kMesh4Faults{"mesh4_dead01_faults",
                                  core::BoardTopology::kMesh, 4, true, 1e-3};

INSTANTIATE_TEST_SUITE_P(
    Runs, MultiBoardGolden,
    ::testing::Values(Scenario{13, kChain2}, Scenario{13, kRing3},
                      Scenario{13, kMesh4}, Scenario{13, kMesh4Faults},
                      Scenario{31, kChain2}, Scenario{31, kRing3},
                      Scenario{31, kMesh4}, Scenario{31, kMesh4Faults}),
    [](const ::testing::TestParamInfo<Scenario>& param) {
      return param.param.name();
    });

}  // namespace
}  // namespace hybridic
