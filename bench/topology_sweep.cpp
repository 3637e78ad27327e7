// Multi-board topology sweep: every paper application across chain / ring
// / mesh inter-board networks at 2..4 boards, through the full pipeline —
// profile -> two-level design (board partition + per-board Algorithm 1)
// -> multi-board cycle-accurate run — plus the analytic multi-board tier
// for cross-checking. Every point re-checks the byte-conservation ledger
// (intra + cut == profiled unique bytes) inline, and ring/mesh points are
// additionally run with a deterministic dead inter-board link (board 0 <->
// board 1) to exercise reroute-around-failure.
//
// Outputs (full mode):
//   bench_results/topology_sweep.csv  — one row per (app, topology,
//                                       boards, scenario)
//   bench_results/REPORT.md           — a "## Multi-board topology sweep"
//                                       section (replaced on rerun)
// Smoke mode (--smoke, used by CI): jpeg only, chain x2 and ring x3,
// written to bench_results/topology_smoke.csv. All outputs are
// byte-identical across reruns and --threads values: every cell is a pure
// function of the (deterministic) profile and the design seed.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/kernel_model.hpp"
#include "core/multi_board_design.hpp"
#include "sys/board_net.hpp"
#include "sys/multi_board.hpp"
#include "tiers/analytic.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;
using util::decimal17;

/// One sweep point: an app on one (topology, board count), healthy links
/// or one deterministic dead link.
struct SweepRow {
  std::string app;
  std::string topology;
  std::uint32_t boards = 0;
  std::string scenario;  // healthy | linkdown
  double total_seconds = 0.0;
  double analytic_mid_seconds = 0.0;
  double analytic_lower_seconds = 0.0;
  double analytic_upper_seconds = 0.0;
  std::uint64_t cut_bytes = 0;
  std::uint64_t intra_bytes = 0;
  std::uint64_t profiled_bytes = 0;
  bool conserved = false;
  std::uint64_t inter_transfers = 0;
  std::uint64_t inter_bytes = 0;
  double inter_busy_seconds = 0.0;
  std::uint64_t reroutes = 0;
  std::uint32_t refinement_moves = 0;
};

SweepRow run_point(apps::ProfileCache& cache, const std::string& app_name,
                   core::BoardTopology topology, std::uint32_t boards,
                   bool linkdown) {
  const std::shared_ptr<const apps::ProfiledApp> app =
      cache.paper_app(app_name);
  const sys::AppSchedule schedule = app->schedule();

  core::MultiBoardDesignInput input;
  input.base = sys::make_design_input(schedule, sys::PlatformConfig{});
  input.board_count = boards;
  const core::MultiBoardDesign design = core::design_multi_board(input);

  sys::MultiBoardConfig config;
  config.board_count = boards;
  config.topology = topology;
  if (linkdown) {
    // The one deterministic failure: sever board 0 <-> board 1. On a ring
    // or mesh the network stays connected and cut traffic detours around
    // the gap (counted as reroutes); on a chain it would disconnect, so
    // chain points never run this scenario.
    config.dead_board_links.push_back({0, 1});
  }
  const sys::MultiBoardRunResult run =
      sys::run_designed_multi(schedule, design, config);
  const tiers::TierEstimate est = tiers::analytic_estimate_multi(
      schedule, design, config, input.base.theta.seconds_per_byte);

  SweepRow row;
  row.app = app_name;
  row.topology = core::to_string(topology);
  row.boards = boards;
  row.scenario = linkdown ? "linkdown" : "healthy";
  row.total_seconds = run.run.total_seconds;
  row.analytic_mid_seconds = est.designed_kernel_seconds;
  row.analytic_lower_seconds = est.designed_lower_seconds;
  row.analytic_upper_seconds = est.designed_upper_seconds;
  row.cut_bytes = design.partition.cut_bytes.count();
  for (const Bytes bytes : design.partition.intra_board_bytes) {
    row.intra_bytes += bytes.count();
  }
  for (const prof::CommEdge& edge : schedule.graph->edges()) {
    if (edge.producer != edge.consumer) {
      row.profiled_bytes += core::edge_volume(edge).count();
    }
  }
  // The conservation ledger the DSE oracle enforces, re-checked here on
  // real (non-synthetic) applications.
  row.conserved =
      row.intra_bytes + row.cut_bytes == row.profiled_bytes &&
      design.partition.total_bytes.count() == row.profiled_bytes;
  row.inter_transfers = run.inter_board_transfers;
  row.inter_bytes = run.inter_board_bytes;
  row.inter_busy_seconds = run.inter_board_busy_seconds;
  row.reroutes = run.board_link_reroutes;
  row.refinement_moves = design.partition.refinement_moves;
  return row;
}

std::string sweep_csv(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  out << "app,topology,boards,scenario,total_s,analytic_mid_s,"
         "analytic_lower_s,analytic_upper_s,cut_bytes,intra_bytes,"
         "profiled_bytes,conserved,inter_transfers,inter_bytes,"
         "inter_busy_s,reroutes,refinement_moves\n";
  for (const SweepRow& row : rows) {
    out << row.app << ',' << row.topology << ',' << row.boards << ','
        << row.scenario << ',' << decimal17(row.total_seconds) << ','
        << decimal17(row.analytic_mid_seconds) << ','
        << decimal17(row.analytic_lower_seconds) << ','
        << decimal17(row.analytic_upper_seconds) << ',' << row.cut_bytes << ','
        << row.intra_bytes << ',' << row.profiled_bytes << ','
        << (row.conserved ? 1 : 0) << ',' << row.inter_transfers << ','
        << row.inter_bytes << ',' << decimal17(row.inter_busy_seconds) << ','
        << row.reroutes << ',' << row.refinement_moves << '\n';
  }
  return out.str();
}

const char kSectionMarker[] = "## Multi-board topology sweep";

std::string sweep_markdown(const std::vector<SweepRow>& rows) {
  std::ostringstream md;
  md << kSectionMarker << "\n\n";
  md << "Two-level design (board min-cut partition + per-board Algorithm "
        "1) across inter-board serial-link topologies. `cut%` is the "
        "share of profiled unique bytes forced across boards; every row "
        "re-checks the byte-conservation ledger (intra + cut == "
        "profiled). `linkdown` rows sever the board 0 <-> board 1 link "
        "and count the reroutes the detour takes.\n\n";
  md << "| app | topology | boards | scenario | total ms | analytic band "
        "ms | cut% | conserved | inter-board B | reroutes |\n";
  md << "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const SweepRow& row : rows) {
    const double cut_pct =
        row.profiled_bytes == 0
            ? 0.0
            : 100.0 * static_cast<double>(row.cut_bytes) /
                  static_cast<double>(row.profiled_bytes);
    md << "| " << row.app << " | " << row.topology << " | " << row.boards
       << " | " << row.scenario << " | "
       << format_fixed(row.total_seconds * 1e3, 3) << " | "
       << format_fixed(row.analytic_lower_seconds * 1e3, 3) << " .. "
       << format_fixed(row.analytic_upper_seconds * 1e3, 3) << " | "
       << format_fixed(cut_pct, 1) << " | "
       << (row.conserved ? "yes" : "**NO**") << " | " << row.inter_bytes
       << " | " << row.reroutes << " |\n";
  }
  md << "\nFull counters: `bench_results/topology_sweep.csv`.\n";
  return md.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepArgs options = bench::parse_sweep_args(argc, argv);
  apps::ProfileCache cache;
  sys::BatchRunner runner{options.threads};

  const std::vector<std::string> app_names =
      options.smoke ? std::vector<std::string>{"jpeg"}
                    : apps::paper_app_names();
  struct Point {
    core::BoardTopology topology;
    std::uint32_t boards;
    bool linkdown;
  };
  std::vector<Point> points;
  if (options.smoke) {
    points = {{core::BoardTopology::kChain, 2, false},
              {core::BoardTopology::kRing, 3, true}};
  } else {
    for (const core::BoardTopology topology :
         {core::BoardTopology::kChain, core::BoardTopology::kRing,
          core::BoardTopology::kMesh}) {
      for (std::uint32_t boards = 2; boards <= 4; ++boards) {
        points.push_back({topology, boards, false});
      }
    }
    // Link-failure scenarios only where severing 0<->1 leaves the network
    // connected: a ring needs >= 3 boards, the 2x2 mesh has a detour.
    points.push_back({core::BoardTopology::kRing, 3, true});
    points.push_back({core::BoardTopology::kRing, 4, true});
    points.push_back({core::BoardTopology::kMesh, 4, true});
  }

  std::vector<sys::BatchRunner::Job<SweepRow>> jobs;
  for (const std::string& app : app_names) {
    for (const Point& point : points) {
      const std::string key =
          "topology/" + app + "/" +
          std::string(core::to_string(point.topology)) + "/" +
          std::to_string(point.boards) +
          (point.linkdown ? "/linkdown" : "/healthy");
      jobs.push_back({key, [&cache, app, point](sys::JobContext&) {
                        return run_point(cache, app, point.topology,
                                         point.boards, point.linkdown);
                      }});
    }
  }
  const std::vector<SweepRow> rows =
      bench::run_prewarmed(cache, runner, app_names, std::move(jobs));

  std::uint64_t violations = 0;
  for (const SweepRow& row : rows) {
    if (!row.conserved) {
      ++violations;
      std::cerr << "byte-conservation violation: " << row.app << " "
                << row.topology << " x" << row.boards << "\n";
    }
  }

  const std::string name = options.smoke ? "topology_smoke" : "topology_sweep";
  std::ofstream{bench::csv_path(name)} << sweep_csv(rows);
  if (!options.smoke) {
    bench::patch_report_section(kSectionMarker, sweep_markdown(rows));
  }
  std::cout << "wrote bench_results/" << name << ".csv (" << rows.size()
            << " points" << (options.smoke ? "" : ", REPORT.md section")
            << ")\n";
  bench::print_batch_metrics(runner, cache);
  return violations == 0 ? 0 : 1;
}
