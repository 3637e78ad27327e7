// Search campaign: annealed interconnect synthesis vs Algorithm 1 over
// the four paper applications plus synthetic extremes (dense, sparse,
// duplication-heavy, fat-edge graphs). For every workload the seeded
// annealer (src/search) starts from the greedy design, so the searched
// point dominates-or-matches Algorithm 1 on the (analytic time, LUTs)
// front by construction; this bench measures by HOW MUCH, re-validates
// every incumbent, and proves the determinism contract by re-running the
// search at --threads 1 and N and comparing the records bit-for-bit.
//
// Outputs:
//   bench_results/search_campaign.csv   the Pareto front, one row per
//                                       workload (searched vs greedy)
//   bench_results/REPORT.md             "Search campaign" section
//   BENCH_PR10.json                     the acceptance record: gains,
//                                       dominance, validator issues,
//                                       thread bit-identity
//
// --smoke shrinks restarts/iterations and skips the end-of-run
// cycle-accurate validation so CI can run it per-push; the full run
// cycle-validates the incumbent of every paper app. Always exits 0 on a
// completed sweep: it records, tests gate (tests/test_search.cpp).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "bench/bench_common.hpp"
#include "core/design_validate.hpp"
#include "search/anneal.hpp"
#include "sys/experiment.hpp"
#include "util/csv.hpp"
#include "util/text.hpp"

#include <algorithm>

namespace {

using namespace hybridic;
using util::decimal17;

struct Workload {
  std::string name;
  std::shared_ptr<const apps::ProfiledApp> app;
  bool cycle_validate = false;
};

/// The synthetic extremes: shapes that stress different corners of the
/// move space (pair churn on dense graphs, duplication on dup-heavy
/// ones, mapping remaps when almost nothing is connected).
std::vector<apps::SyntheticConfig> extreme_configs() {
  std::vector<apps::SyntheticConfig> configs;
  {
    apps::SyntheticConfig dense;
    dense.kernel_count = 10;
    dense.kernel_edge_probability = 0.9;
    dense.duplicable_probability = 0.5;
    dense.seed = 11;
    configs.push_back(dense);
  }
  {
    apps::SyntheticConfig sparse;
    sparse.kernel_count = 8;
    sparse.kernel_edge_probability = 0.08;
    sparse.seed = 12;
    configs.push_back(sparse);
  }
  {
    apps::SyntheticConfig dup_heavy;
    dup_heavy.kernel_count = 8;
    dup_heavy.duplicable_probability = 1.0;
    dup_heavy.streaming_probability = 1.0;
    dup_heavy.seed = 13;
    configs.push_back(dup_heavy);
  }
  {
    apps::SyntheticConfig fat_edges;
    fat_edges.kernel_count = 6;
    fat_edges.min_edge_bytes = 256 * 1024;
    fat_edges.max_edge_bytes = 1024 * 1024;
    fat_edges.streaming_probability = 0.0;
    fat_edges.seed = 14;
    configs.push_back(fat_edges);
  }
  return configs;
}

/// One workload's ledger entry.
struct SweepRow {
  std::string name;
  search::SearchRecord record;
  bool dominates_or_matches = false;
  bool threads_identical = false;
  std::size_t validator_issues = 0;  ///< On the searched incumbent.
  bool cycle_checked = false;
  bool cycle_within_band = false;
};

SweepRow sweep_one(const Workload& workload, std::size_t threads,
                   std::uint32_t restarts, std::uint32_t iterations) {
  const sys::PlatformConfig platform;
  const sys::AppSchedule schedule = workload.app->schedule();
  const core::DesignInput input = sys::make_design_input(schedule, platform);

  search::AnnealOptions sopt;
  sopt.restarts = restarts;
  sopt.iterations = iterations;
  sopt.cycle_validate = workload.cycle_validate;

  // The determinism contract, proved in-bench: the same search on one
  // thread and on N >= 2 (--threads, or every core) must agree on every
  // record field.
  sopt.threads = 1;
  const search::SearchResult serial =
      search::anneal_interconnect(schedule, input, platform, sopt);
  sopt.threads = std::max<std::size_t>(
      2, threads == 0 ? std::thread::hardware_concurrency() : threads);
  sopt.cycle_validate = false;  // Identity covers the search, not the sim.
  const search::SearchResult parallel =
      search::anneal_interconnect(schedule, input, platform, sopt);

  SweepRow row;
  row.name = workload.name;
  row.record = serial.record();
  row.threads_identical =
      row.record == parallel.record() &&
      serial.best_vars == parallel.best_vars &&
      serial.incumbent_trace == parallel.incumbent_trace;
  row.dominates_or_matches =
      row.record.analytic_seconds <=
          row.record.algorithm1_analytic_seconds &&
      row.record.luts <= row.record.algorithm1_luts;
  row.validator_issues =
      core::validate_design(serial.best, input.kernels).size();
  if (serial.cycle.has_value()) {
    row.cycle_checked = true;
    row.cycle_within_band = serial.cycle->within_band;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepArgs options = bench::parse_sweep_args(argc, argv);
  const std::uint32_t restarts = options.smoke ? 2 : 4;
  const std::uint32_t iterations = options.smoke ? 24 : 120;

  apps::ProfileCache cache;
  std::vector<Workload> workloads;
  for (const std::string& name : apps::paper_app_names()) {
    workloads.push_back({name, cache.paper_app(name), !options.smoke});
  }
  for (const apps::SyntheticConfig& config : extreme_configs()) {
    auto app = std::make_shared<apps::ProfiledApp>(
        apps::make_synthetic_app(config));
    workloads.push_back({"synthetic_s" + std::to_string(config.seed),
                         std::move(app), false});
  }

  std::vector<SweepRow> rows;
  rows.reserve(workloads.size());
  for (const Workload& workload : workloads) {
    rows.push_back(
        sweep_one(workload, options.threads, restarts, iterations));
    const SweepRow& row = rows.back();
    std::cout << row.name << ": alg1 "
              << row.record.algorithm1_analytic_seconds * 1e3
              << " ms / " << row.record.algorithm1_luts << " LUTs -> searched "
              << row.record.analytic_seconds * 1e3 << " ms / "
              << row.record.luts << " LUTs (gain " << row.record.gain
              << "x, " << (row.dominates_or_matches ? "dominates-or-matches"
                                                    : "REGRESSED")
              << ", threads "
              << (row.threads_identical ? "bit-identical" : "DIVERGED")
              << ")\n";
  }

  // Pareto CSV.
  {
    CsvWriter csv{bench::csv_path("search_campaign"),
                  {"workload", "solution", "alg1_analytic_s",
                   "searched_analytic_s", "gain", "alg1_luts",
                   "searched_luts", "best_restart", "proposed", "accepted",
                   "rejected_illegal", "cache_hits", "dominates_or_matches",
                   "threads_identical", "validator_issues"}};
    for (const SweepRow& row : rows) {
      csv.add_row({row.name, row.record.solution_tag,
                   decimal17(row.record.algorithm1_analytic_seconds),
                   decimal17(row.record.analytic_seconds),
                   decimal17(row.record.gain),
                   std::to_string(row.record.algorithm1_luts),
                   std::to_string(row.record.luts),
                   std::to_string(row.record.best_restart),
                   std::to_string(row.record.proposed),
                   std::to_string(row.record.accepted),
                   std::to_string(row.record.rejected_illegal),
                   std::to_string(row.record.cache_hits),
                   row.dominates_or_matches ? "yes" : "no",
                   row.threads_identical ? "yes" : "no",
                   std::to_string(row.validator_issues)});
    }
  }

  // REPORT.md section.
  std::size_t dominated = 0, identical = 0, clean = 0;
  double best_gain = 1.0, gain_sum = 0.0;
  for (const SweepRow& row : rows) {
    dominated += row.dominates_or_matches ? 1 : 0;
    identical += row.threads_identical ? 1 : 0;
    clean += row.validator_issues == 0 ? 1 : 0;
    best_gain = std::max(best_gain, row.record.gain);
    gain_sum += row.record.gain;
  }
  {
    std::ostringstream section;
    section << "## Search campaign (annealed vs Algorithm 1)\n\n"
            << "| workload | solution | alg1 ms | searched ms | gain | "
               "alg1 LUTs | searched LUTs |\n"
            << "|---|---|---|---|---|---|---|\n";
    for (const SweepRow& row : rows) {
      section << "| " << row.name << " | " << row.record.solution_tag
              << " | " << row.record.algorithm1_analytic_seconds * 1e3
              << " | " << row.record.analytic_seconds * 1e3 << " | "
              << row.record.gain << "x | " << row.record.algorithm1_luts
              << " | " << row.record.luts << " |\n";
    }
    section << "\nDominates-or-matches Algorithm 1: " << dominated << "/"
            << rows.size() << ". Thread-count bit-identical: " << identical
            << "/" << rows.size() << ". Validator-clean incumbents: "
            << clean << "/" << rows.size() << ".\n";
    bench::patch_report_section(
        "## Search campaign (annealed vs Algorithm 1)", section.str());
  }

  // The acceptance record.
  {
    std::ofstream json{"BENCH_PR10.json"};
    json << "{\n"
         << "  \"bench\": \"search_campaign\",\n"
         << "  \"pr\": 10,\n"
         << "  \"smoke\": " << (options.smoke ? "true" : "false") << ",\n"
         << "  \"restarts\": " << restarts << ",\n"
         << "  \"iterations\": " << iterations << ",\n"
         << "  \"workloads\": " << rows.size() << ",\n"
         << "  \"dominates_or_matches\": " << dominated << ",\n"
         << "  \"threads_bit_identical\": " << identical << ",\n"
         << "  \"validator_clean\": " << clean << ",\n"
         << "  \"best_gain\": " << best_gain << ",\n"
         << "  \"mean_gain\": "
         << (rows.empty() ? 1.0 : gain_sum / static_cast<double>(rows.size()))
         << ",\n"
         << "  \"entries\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      json << "    {\"workload\": \"" << row.name << "\", \"gain\": "
           << row.record.gain << ", \"alg1_luts\": "
           << row.record.algorithm1_luts << ", \"searched_luts\": "
           << row.record.luts << ", \"dominates_or_matches\": "
           << (row.dominates_or_matches ? "true" : "false")
           << ", \"threads_bit_identical\": "
           << (row.threads_identical ? "true" : "false")
           << ", \"validator_issues\": " << row.validator_issues
           << ", \"cycle_within_band\": "
           << (row.cycle_checked ? (row.cycle_within_band ? "true" : "false")
                                 : "null")
           << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
  }
  std::cout << "wrote " << bench::csv_path("search_campaign")
            << " and BENCH_PR10.json\n";
  return 0;
}
