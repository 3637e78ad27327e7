// Shared support for the paper-reproduction bench binaries: runs the full
// pipeline for the four applications and carries the paper's published
// numbers so every report prints paper-vs-measured side by side.
#pragma once

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/profile_cache.hpp"
#include "sys/batch_runner.hpp"
#include "sys/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace hybridic::bench {

/// The command line of the batch-runner benches that take only
/// `--threads N` (0 = hardware concurrency).
inline std::size_t parse_threads(int argc, char** argv) {
  std::size_t threads = 0;
  util::Flags{"[--threads N]"}
      .value("--threads", threads)
      .parse_or_exit(argc, argv);
  return threads;
}

/// The command line of the paper-app sweeps (fault_campaign,
/// topology_sweep, search_campaign): `--threads N` (0 = hardware
/// concurrency) and `--smoke` for the small CI subset.
struct SweepArgs {
  std::size_t threads = 0;
  bool smoke = false;
};

inline SweepArgs parse_sweep_args(int argc, char** argv) {
  SweepArgs args;
  util::Flags{"[--threads N] [--smoke]"}
      .value("--threads", args.threads)
      .on("--smoke", args.smoke)
      .parse_or_exit(argc, argv);
  return args;
}

/// Paper-published reference numbers (Fig. 4, Table III, Table IV, Fig. 9).
struct PaperReference {
  // Table III.
  double proposed_app_vs_sw;
  double proposed_kernel_vs_sw;
  double proposed_app_vs_baseline;
  double proposed_kernel_vs_baseline;
  // Derived from Table III (baseline = proposed_vs_sw / proposed_vs_base).
  double baseline_app_vs_sw;
  double baseline_kernel_vs_sw;
  // Table IV.
  std::uint64_t baseline_luts, baseline_regs;
  std::uint64_t ours_luts, ours_regs;
  std::uint64_t noc_only_luts, noc_only_regs;
  std::string solution;
};

inline const std::map<std::string, PaperReference>& paper_reference() {
  static const std::map<std::string, PaperReference> kRef{
      {"canny",
       {3.15, 3.88, 1.83, 2.12, 3.15 / 1.83, 3.88 / 2.12, 9926, 12707,
        15227, 18657, 17894, 21059, "NoC, SM, P"}},
      {"jpeg",
       {2.33, 2.50, 2.87, 3.08, 2.33 / 2.87, 2.50 / 3.08, 11755, 11910,
        20837, 20900, 23180, 23188, "NoC, SM, P"}},
      {"klt",
       {3.72, 6.58, 1.26, 1.55, 3.72 / 1.26, 6.58 / 1.55, 4721, 5430, 4921,
        5631, 7358, 8070, "SM"}},
      {"fluid",
       {1.66, 1.68, 1.59, 1.60, 1.66 / 1.59, 1.68 / 1.60, 19125, 28793,
        24156, 36100, 24552, 36110, "NoC"}},
  };
  return kRef;
}

/// Profile + design + simulate all four paper applications on the batch
/// runner — one job per app, profiles served by `cache`. Deterministic:
/// the result map is keyed and every job is isolated, so the outcome is
/// bit-identical at any thread count.
inline std::map<std::string, sys::AppExperiment> run_all_experiments(
    apps::ProfileCache& cache, sys::BatchRunner& runner) {
  const std::vector<std::string> names = apps::paper_app_names();
  std::vector<sys::BatchRunner::Job<sys::AppExperiment>> jobs;
  jobs.reserve(names.size());
  for (const std::string& name : names) {
    jobs.push_back(
        {"experiment/" + name, [&cache, name](sys::JobContext&) {
           const std::shared_ptr<const apps::ProfiledApp> app =
               cache.paper_app(name);
           if (!app->verified) {
             throw ConfigError{"application self-verification failed: " +
                               name + " (" + app->verification_note + ")"};
           }
           return sys::run_experiment(app->schedule(),
                                      sys::PlatformConfig{},
                                      app->environment);
         }});
  }
  std::vector<sys::AppExperiment> results = runner.run(std::move(jobs));
  std::map<std::string, sys::AppExperiment> experiments;
  for (std::size_t i = 0; i < names.size(); ++i) {
    experiments.emplace(names[i], std::move(results[i]));
  }
  return experiments;
}

/// Profile each distinct app once, concurrently, before a cold batch.
/// Campaign batches are typically submitted app-major (every job for app A
/// before any job for app B), so a cold run convoys: the first N workers
/// all want app A, one computes its profile and N-1 block on the in-flight
/// future (ProfileCache::convoy_waits()) while the other apps' profiles
/// sit unstarted. One tiny batch with one job per distinct app makes the
/// misses proceed concurrently without reordering the main batch (and
/// therefore without touching its CSV/report output order).
inline void prewarm_profiles(apps::ProfileCache& cache,
                             sys::BatchRunner& runner,
                             const std::vector<std::string>& names) {
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.reserve(names.size());
  for (const std::string& name : names) {
    jobs.push_back({"prewarm/" + name, [&cache, name](sys::JobContext&) {
                      (void)cache.paper_app(name);
                      return 0;
                    }});
  }
  (void)runner.run(std::move(jobs));
}

/// Run an app-major batch of jobs over the paper apps `names`, profiling
/// each distinct app concurrently first (prewarm_profiles), so a cold
/// cache never convoys the first workers on one in-flight profile.
template <typename R>
std::vector<R> run_prewarmed(apps::ProfileCache& cache,
                             sys::BatchRunner& runner,
                             const std::vector<std::string>& names,
                             std::vector<sys::BatchRunner::Job<R>> jobs) {
  prewarm_profiles(cache, runner, names);
  return runner.run(std::move(jobs));
}

/// Convenience overload for benches that don't need to reuse the cache or
/// inspect batch metrics.
inline std::map<std::string, sys::AppExperiment> run_all_experiments(
    std::size_t threads = 0) {
  apps::ProfileCache cache;
  sys::BatchRunner runner{threads};
  return run_all_experiments(cache, runner);
}

/// One-line batch metrics summary for a bench's stdout (never written into
/// table/CSV/JSON outputs, which must stay byte-identical across thread
/// counts).
inline void print_batch_metrics(const sys::BatchRunner& runner,
                                const apps::ProfileCache& cache) {
  const sys::BatchReport& report = runner.last_report();
  std::cout << "[batch] threads=" << report.thread_count
            << " jobs=" << report.jobs.size()
            << " wall=" << report.wall_seconds
            << "s cpu=" << report.total_job_seconds()
            << "s steals=" << report.steals
            << " profile-cache hits=" << cache.hits() << "/"
            << (cache.hits() + cache.misses())
            << " convoy-waits=" << cache.convoy_waits() << "\n";
}

/// Where the output file `file_name` lands: ./bench_results/, created if
/// needed.
inline std::string results_path(const std::string& file_name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  return "bench_results/" + file_name;
}

/// Where CSV copies of each table/figure land (./bench_results/).
inline std::string csv_path(const std::string& name) {
  return results_path(name + ".csv");
}

/// Replace (or append) one marker-delimited section of
/// bench_results/REPORT.md: the text from `marker` up to the next line
/// starting "## " (or the end of the file) becomes `section`, so a
/// campaign section re-runs idempotently and every other section —
/// report_all's main report and the other campaigns' — stays in place.
inline void patch_report_section(const std::string& marker,
                                 const std::string& section) {
  const std::string path = "bench_results/REPORT.md";
  std::string existing;
  {
    std::ifstream in{path};
    std::stringstream buffer;
    buffer << in.rdbuf();
    existing = buffer.str();
  }
  std::string later;  // The sections after the replaced one.
  const std::size_t at = existing.find(marker);
  if (at != std::string::npos) {
    const std::size_t next = existing.find("\n## ", at + marker.size());
    if (next != std::string::npos) {
      later = existing.substr(next + 1);
    }
    existing.erase(at);
  }
  while (!existing.empty() && existing.back() == '\n') {
    existing.pop_back();
  }
  if (!existing.empty()) {
    existing += "\n\n";
  }
  std::string patched = section;
  if (!later.empty()) {
    while (!patched.empty() && patched.back() == '\n') {
      patched.pop_back();
    }
    patched += "\n\n" + later;
  }
  std::ofstream out{path};
  out << existing << patched;
}

}  // namespace hybridic::bench
