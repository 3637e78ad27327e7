// Performance smoke test: runs the three micro-workloads (profiler shadow
// scan, NoC traffic, bus transactions), a per-phase breakdown of the
// end-to-end paper pipeline (profiling vs Algorithm 1 vs simulation), the
// parallel batch-runner evaluation — cold and warm speedups reported
// separately — the persistent-store warm-restart figure, a 2-way sharded
// campaign smoke, and the tiered DSE sweep in all three --tier modes,
// then writes the measured numbers to BENCH_PR7.json so CI can archive
// them. --dse-count N (default 1000) sizes the sweep.
//
// Thread count and per-core throughput are recorded alongside every
// machine-dependent figure so BENCH_PR*.json entries stay comparable
// across machines with different core counts.
//
// This is deliberately NOT a google-benchmark binary: it runs each workload
// a fixed number of times, reports wall-clock medians, and always exits 0 —
// it records performance, it does not gate on it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "bench/bench_common.hpp"
#include "bus/bus.hpp"
#include "core/interconnect_design.hpp"
#include "dse/campaign.hpp"
#include "noc/network.hpp"
#include "prof/shadow_memory.hpp"
#include "sim/engine.hpp"
#include "store/adapters.hpp"
#include "store/store.hpp"
#include "sys/batch_runner.hpp"
#include "sys/experiment.hpp"
#include "tiers/tiered_evaluator.hpp"

namespace {

using namespace hybridic;
using Clock = std::chrono::steady_clock;

double median_seconds(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Repeats `body` and returns the median wall-clock seconds per run.
template <typename Body>
double time_runs(int runs, Body&& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const auto start = Clock::now();
    body();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    samples.push_back(elapsed.count());
  }
  return median_seconds(samples);
}

/// Shadow-memory scan throughput over a fragmented region (many producer
/// runs), the workload the page-granular scan targets.
double shadow_scan_mb_per_sec() {
  prof::ShadowMemory shadow;
  constexpr std::uint64_t kChunks = 4096;
  constexpr std::uint64_t kChunkBytes = 128;
  constexpr std::uint64_t kSpan = kChunks * kChunkBytes;
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    shadow.write(i * kChunkBytes, kChunkBytes,
                 static_cast<prof::FunctionId>(i % 4));
  }
  constexpr int kScansPerRun = 200;
  const double sec = time_runs(9, [&shadow] {
    std::uint64_t total = 0;
    for (int s = 0; s < kScansPerRun; ++s) {
      shadow.scan(0, kSpan,
                  [&total](std::uint64_t, std::uint64_t len,
                           prof::FunctionId) { total += len; });
    }
    if (total != kScansPerRun * kSpan) {
      std::cerr << "shadow scan covered wrong byte count\n";
    }
  });
  return static_cast<double>(kScansPerRun * kSpan) / sec / 1e6;
}

/// NoC all-to-all on a 4x4 mesh; reports simulation events per wall second.
double noc_events_per_sec(std::uint64_t& events_out) {
  constexpr std::uint32_t kDim = 4;
  const sim::ClockDomain noc_clock{"noc", Frequency::megahertz(150)};
  std::uint64_t events = 0;
  const double sec = time_runs(9, [&noc_clock, &events] {
    sim::Engine engine;
    noc::Network network{"noc", engine, noc_clock, noc::Mesh2D{kDim, kDim},
                         noc::NetworkConfig{}};
    for (std::uint32_t n = 0; n < kDim * kDim; ++n) {
      std::string name = "n";
      name += std::to_string(n);
      network.attach_adapter(n, std::move(name),
                             noc::AdapterKind::kAccelerator);
    }
    for (std::uint32_t src = 0; src < kDim * kDim; ++src) {
      for (std::uint32_t dst = 0; dst < kDim * kDim; ++dst) {
        if (src != dst) {
          network.send(src, dst, Bytes{256}, {});
        }
      }
    }
    engine.run();
    events = engine.events_executed();
  });
  events_out = events;
  return static_cast<double>(events) / sec;
}

/// Bus transaction burst; reports completed transactions per wall second.
double bus_transactions_per_sec() {
  const sim::ClockDomain bus_clock{"bus", Frequency::megahertz(100)};
  constexpr int kRequests = 4096;
  std::uint64_t transactions = 0;
  const double sec = time_runs(9, [&bus_clock, &transactions] {
    sim::Engine engine;
    bus::Bus plb{"plb", engine, bus_clock,
                 bus::BusConfig{8, 16, Cycles{2}, Cycles{1}, 2}};
    for (int i = 0; i < kRequests; ++i) {
      plb.submit(bus::BusRequest{static_cast<std::uint32_t>(i % 2),
                                 Bytes{128}, Picoseconds{0}, {}});
    }
    engine.run();
    transactions = plb.transactions();
  });
  return static_cast<double>(transactions) / sec;
}

/// Per-phase breakdown of the paper pipeline for one app: profiling
/// (QUAD shadow-memory pass), Algorithm 1 (interconnect design), and the
/// cycle-accurate simulation of all variants. The simulation figure is
/// the full run_experiment wall time — it re-runs Algorithm 1 internally,
/// but that is microseconds against milliseconds of event simulation.
struct PhaseBreakdown {
  double profile_ms = 0.0;
  double algorithm1_ms = 0.0;
  double simulate_ms = 0.0;
};

PhaseBreakdown phase_breakdown(const std::string& app_name) {
  PhaseBreakdown out;
  out.profile_ms =
      time_runs(3, [&app_name] { (void)apps::run_paper_app(app_name); }) *
      1e3;
  const apps::ProfiledApp app = apps::run_paper_app(app_name);
  const sys::AppSchedule schedule = app.schedule();
  const sys::PlatformConfig platform;
  const core::DesignInput input = sys::make_design_input(schedule, platform);
  out.algorithm1_ms =
      time_runs(9, [&input] { (void)core::design_interconnect(input); }) *
      1e3;
  out.simulate_ms = time_runs(3, [&schedule, &platform, &app] {
                      const sys::AppExperiment experiment =
                          sys::run_experiment(schedule, platform,
                                              app.environment);
                      if (experiment.proposed.total_seconds <= 0.0) {
                        std::cerr << "experiment produced zero runtime\n";
                      }
                    }) *
                    1e3;
  return out;
}

/// Wall seconds to profile one paper app cold as a one-thread batch job.
double profile_once_seconds(const std::string& name) {
  sys::BatchRunner runner{1};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"profile/" + name, [&name](sys::JobContext&) {
                    (void)apps::run_paper_app(name);
                    return 0;
                  }});
  (void)runner.run(std::move(jobs));
  return runner.last_report().wall_seconds;
}

/// All four AppExperiments on the batch runner at `threads`, profiles
/// served by `cache`. Returns batch wall seconds; metrics land in `out`.
double batch_seconds(std::size_t threads, apps::ProfileCache& cache,
                     std::uint64_t& steals_out) {
  sys::BatchRunner runner{threads};
  const auto experiments = bench::run_all_experiments(cache, runner);
  if (experiments.size() != 4) {
    std::cerr << "batch produced wrong experiment count\n";
  }
  steals_out = runner.last_report().steals;
  return runner.last_report().wall_seconds;
}

/// One DSE sweep in `tier` mode; returns wall seconds, stats in `stats`.
double dse_sweep_seconds(std::uint64_t count, tiers::TierMode tier,
                         dse::TierStats& stats) {
  dse::CampaignOptions options;
  options.count = count;
  options.campaign_seed = 1;
  options.max_shrinks = 0;
  options.tier = tier;
  const auto start = Clock::now();
  const dse::CampaignResult result = dse::run_campaign(options);
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  stats = result.tier_stats;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t dse_count = 1000;
  util::Flags{"[--dse-count N]"}
      .value("--dse-count", dse_count)
      .parse_or_exit(argc, argv);
  const unsigned hw_threads = std::max(1U, std::thread::hardware_concurrency());
  std::cout << "perf_smoke: profiler / NoC / bus micro-workloads + "
               "phase breakdown + parallel batch + store restart ("
            << hw_threads << " hardware threads)\n";

  const double scan_mb_s = shadow_scan_mb_per_sec();
  std::cout << "  shadow scan:      " << scan_mb_s << " MB/s\n";

  std::uint64_t noc_events = 0;
  const double noc_ev_s = noc_events_per_sec(noc_events);
  std::cout << "  noc all-to-all:   " << noc_ev_s << " events/s ("
            << noc_events << " events per run)\n";

  const double bus_tx_s = bus_transactions_per_sec();
  std::cout << "  bus transactions: " << bus_tx_s << " tx/s\n";

  // Per-phase pipeline breakdown (jpeg): where an end-to-end run spends
  // its time, so profiling-path fixes are visible in the trajectory.
  const PhaseBreakdown phases = phase_breakdown("jpeg");
  const double jpeg_ms = phases.profile_ms + phases.simulate_ms;
  std::cout << "  jpeg phases:      profile " << phases.profile_ms
            << " ms, algorithm1 " << phases.algorithm1_ms
            << " ms, simulate " << phases.simulate_ms << " ms\n";

  // One cold jpeg profile as a batch job: profiling runs on one thread.
  const double profile_serial_s = profile_once_seconds("jpeg");
  std::cout << "  profile jpeg:     " << profile_serial_s * 1e3
            << " ms cold, one batch job\n";

  // Batch runner: cold and warm speedups are separate figures — a cold
  // batch is profiling-bound (one app per thread at most), a warm batch
  // is simulation fan-out. PR 6 recorded a single "batch_parallel_speedup"
  // of 0.99 without flagging that it measured the cold path on one core.
  std::uint64_t steals_1 = 0;
  std::uint64_t steals_1_warm = 0;
  std::uint64_t steals_n_cold = 0;
  std::uint64_t steals_n_warm = 0;
  std::uint64_t steals_n_prewarmed = 0;
  apps::ProfileCache cache_cold_1;
  const double batch_1t_cold_s = batch_seconds(1, cache_cold_1, steals_1);
  const double batch_1t_warm_s =
      batch_seconds(1, cache_cold_1, steals_1_warm);
  apps::ProfileCache cache_cold_n;
  const double batch_nt_cold_s =
      batch_seconds(hw_threads, cache_cold_n, steals_n_cold);
  const double batch_nt_warm_s =
      batch_seconds(hw_threads, cache_cold_n, steals_n_warm);
  const std::uint64_t cache_hits = cache_cold_n.hits();
  const std::uint64_t cache_misses = cache_cold_n.misses();
  const std::uint64_t cache_convoys = cache_cold_n.convoy_waits();
  const double cold_speedup =
      batch_nt_cold_s > 0 ? batch_1t_cold_s / batch_nt_cold_s : 0.0;
  const double warm_speedup =
      batch_nt_warm_s > 0 ? batch_1t_warm_s / batch_nt_warm_s : 0.0;
  // Cold again, but with the distinct-app profiles prewarmed concurrently
  // first (the fault-campaign convoy fix); wall time includes the prewarm.
  apps::ProfileCache cache_prewarmed;
  double batch_nt_prewarmed_s = 0.0;
  {
    const auto start = Clock::now();
    sys::BatchRunner runner{hw_threads};
    bench::prewarm_profiles(cache_prewarmed, runner,
                            apps::paper_app_names());
    (void)bench::run_all_experiments(cache_prewarmed, runner);
    batch_nt_prewarmed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    steals_n_prewarmed = runner.last_report().steals;
  }
  std::cout << "  batch (4 apps):   cold " << batch_1t_cold_s * 1e3
            << " ms @1t -> " << batch_nt_cold_s * 1e3 << " ms @"
            << hw_threads << "t (cold speedup " << cold_speedup
            << "x, steals " << steals_n_cold << ", convoy-waits "
            << cache_convoys << "); warm " << batch_1t_warm_s * 1e3
            << " ms @1t -> " << batch_nt_warm_s * 1e3
            << " ms (warm speedup " << warm_speedup << "x, cache "
            << cache_hits << " hits / " << cache_misses << " misses); "
            << batch_nt_prewarmed_s * 1e3 << " ms cold+prewarm\n";
  if (hw_threads >= 4 && cold_speedup < 2.0) {
    std::cout << "  WARNING: cold batch speedup " << cold_speedup
              << "x < 2x on a " << hw_threads
              << "-thread host — profiling the four apps concurrently "
                 "is not scaling; check BENCH_PR7.json cold figures\n";
  }

  // Store warm restart: populate a fresh on-disk store from one process
  // lifetime (cache A), then time the 4-app batch in a simulated fresh
  // process — new L1 cache, new Store handle, profiles served from disk.
  // The acceptance bar is restart <= 2x the in-process warm batch.
  namespace fs = std::filesystem;
  const fs::path store_root =
      fs::temp_directory_path() / "hybridic_perf_smoke_store";
  std::error_code ec;
  fs::remove_all(store_root, ec);
  double store_restart_s = 0.0;
  std::uint64_t store_restart_l2_hits = 0;
  {
    auto disk = std::make_shared<store::Store>(store_root.string());
    apps::ProfileCache writer;
    writer.set_l2(std::make_shared<store::ProfileStoreL2>(disk));
    std::uint64_t steals = 0;
    (void)batch_seconds(hw_threads, writer, steals);

    auto disk2 = std::make_shared<store::Store>(store_root.string());
    apps::ProfileCache reader;
    reader.set_l2(std::make_shared<store::ProfileStoreL2>(disk2));
    store_restart_s = batch_seconds(hw_threads, reader, steals);
    store_restart_l2_hits = reader.l2_hits();
  }
  fs::remove_all(store_root, ec);
  const double restart_over_warm =
      batch_nt_warm_s > 0 ? store_restart_s / batch_nt_warm_s : 0.0;
  std::cout << "  store restart:    " << store_restart_s * 1e3 << " ms ("
            << store_restart_l2_hits << " L2 hits, " << restart_over_warm
            << "x the in-process warm batch)\n";

  // Sharded campaign smoke: the same small sweep as 2 shards sharing one
  // store; counters prove cross-process reuse plumbing end to end.
  std::uint64_t shard_rows[2] = {0, 0};
  std::uint64_t shard_store_hits = 0;
  std::uint64_t shard_store_puts = 0;
  {
    const fs::path shard_store =
        fs::temp_directory_path() / "hybridic_perf_smoke_shards";
    fs::remove_all(shard_store, ec);
    for (std::uint64_t shard = 0; shard < 2; ++shard) {
      dse::CampaignOptions options;
      options.count = 16;
      options.campaign_seed = 1;
      options.max_shrinks = 0;
      options.tier = tiers::TierMode::kAnalytic;
      options.store_dir = (shard_store / "store").string();
      options.shard_index = shard;
      options.shard_count = 2;
      const dse::CampaignResult result = dse::run_campaign(options);
      shard_rows[shard] = result.cases.size();
      if (result.store_stats.has_value()) {
        shard_store_hits += result.store_stats->hits;
        shard_store_puts += result.store_stats->puts;
      }
    }
    fs::remove_all(shard_store, ec);
  }
  std::cout << "  shard smoke:      " << shard_rows[0] << "+"
            << shard_rows[1] << " rows, store " << shard_store_puts
            << " puts / " << shard_store_hits << " hits across shards\n";

  // Tiered DSE sweep: the same design points priced by the analytic tier,
  // the auto policy (analytic + capped escalation), and the full
  // cycle-accurate engine. tier_speedup is the acceptance figure: designs
  // per wall second in auto mode over cycle mode.
  dse::TierStats stats_analytic;
  dse::TierStats stats_auto;
  dse::TierStats stats_cycle;
  const double dse_analytic_s = dse_sweep_seconds(
      dse_count, tiers::TierMode::kAnalytic, stats_analytic);
  const double dse_auto_s =
      dse_sweep_seconds(dse_count, tiers::TierMode::kAuto, stats_auto);
  const double dse_cycle_s =
      dse_sweep_seconds(dse_count, tiers::TierMode::kCycle, stats_cycle);
  const double analytic_evals_per_sec =
      dse_analytic_s > 0 ? static_cast<double>(dse_count) / dse_analytic_s
                         : 0.0;
  const double tier_speedup = dse_auto_s > 0 ? dse_cycle_s / dse_auto_s : 0.0;
  const double escalation_rate = stats_auto.escalation_rate(dse_count);
  std::cout << "  dse sweep (" << dse_count << " designs): analytic "
            << dse_analytic_s << " s (" << analytic_evals_per_sec
            << " evals/s), auto " << dse_auto_s << " s ("
            << stats_auto.cycle_evals << " escalated, rate "
            << escalation_rate << ", " << stats_auto.band_violations
            << " band violations), cycle " << dse_cycle_s
            << " s -> tier speedup " << tier_speedup << "x\n";

  std::ofstream json{"BENCH_PR7.json"};
  json << "{\n"
       << "  \"bench\": \"perf_smoke\",\n"
       << "  \"pr\": 7,\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"shadow_scan_mb_per_sec\": " << scan_mb_s << ",\n"
       << "  \"noc_events_per_sec\": " << noc_ev_s << ",\n"
       << "  \"noc_events_per_run\": " << noc_events << ",\n"
       << "  \"bus_transactions_per_sec\": " << bus_tx_s << ",\n"
       << "  \"noc_events_per_sec_per_core\": " << noc_ev_s / hw_threads
       << ",\n"
       << "  \"bus_transactions_per_sec_per_core\": " << bus_tx_s / hw_threads
       << ",\n"
       << "  \"end_to_end_jpeg_ms\": " << jpeg_ms << ",\n"
       << "  \"phase_profile_jpeg_ms\": " << phases.profile_ms << ",\n"
       << "  \"phase_algorithm1_jpeg_ms\": " << phases.algorithm1_ms << ",\n"
       << "  \"phase_simulate_jpeg_ms\": " << phases.simulate_ms << ",\n"
       << "  \"profile_jpeg_serial_ms\": " << profile_serial_s * 1e3 << ",\n"
       << "  \"batch_4apps_1thread_cold_ms\": " << batch_1t_cold_s * 1e3
       << ",\n"
       << "  \"batch_4apps_1thread_warm_ms\": " << batch_1t_warm_s * 1e3
       << ",\n"
       << "  \"batch_4apps_nthread_cold_ms\": " << batch_nt_cold_s * 1e3
       << ",\n"
       << "  \"batch_4apps_nthread_cold_prewarmed_ms\": "
       << batch_nt_prewarmed_s * 1e3 << ",\n"
       << "  \"batch_4apps_nthread_warm_ms\": " << batch_nt_warm_s * 1e3
       << ",\n"
       << "  \"batch_cold_parallel_speedup\": " << cold_speedup << ",\n"
       << "  \"batch_warm_parallel_speedup\": " << warm_speedup << ",\n"
       << "  \"batch_steals_nthread_cold\": " << steals_n_cold << ",\n"
       << "  \"batch_steals_nthread_prewarmed\": " << steals_n_prewarmed
       << ",\n"
       << "  \"profile_cache_hits\": " << cache_hits << ",\n"
       << "  \"profile_cache_misses\": " << cache_misses << ",\n"
       << "  \"profile_cache_convoy_waits\": " << cache_convoys << ",\n"
       << "  \"store_warm_restart_ms\": " << store_restart_s * 1e3 << ",\n"
       << "  \"store_warm_restart_l2_hits\": " << store_restart_l2_hits
       << ",\n"
       << "  \"store_restart_over_warm_batch\": " << restart_over_warm
       << ",\n"
       << "  \"shard_smoke_rows_shard0\": " << shard_rows[0] << ",\n"
       << "  \"shard_smoke_rows_shard1\": " << shard_rows[1] << ",\n"
       << "  \"shard_smoke_store_puts\": " << shard_store_puts << ",\n"
       << "  \"shard_smoke_store_hits\": " << shard_store_hits << ",\n"
       << "  \"dse_design_count\": " << dse_count << ",\n"
       << "  \"dse_analytic_sweep_s\": " << dse_analytic_s << ",\n"
       << "  \"dse_auto_sweep_s\": " << dse_auto_s << ",\n"
       << "  \"dse_cycle_sweep_s\": " << dse_cycle_s << ",\n"
       << "  \"analytic_evals_per_sec\": " << analytic_evals_per_sec << ",\n"
       << "  \"escalation_rate\": " << escalation_rate << ",\n"
       << "  \"escalated_rank\": " << stats_auto.escalated_rank << ",\n"
       << "  \"escalated_oracle\": " << stats_auto.escalated_oracle << ",\n"
       << "  \"band_violations\": " << stats_auto.band_violations << ",\n"
       << "  \"tier_speedup\": " << tier_speedup << "\n"
       << "}\n";
  std::cout << "wrote BENCH_PR7.json\n";
  return 0;
}
