// Property-based design-space exploration campaign: sweeps >= 1000
// generated SyntheticConfig design points through profiling, Algorithm 1
// and the tiered evaluation engine (--tier=auto|analytic|cycle; cycle
// rows run all five system variants), checks the invariant oracles per
// design, and shrinks failures into standalone JSON reproducers.
//
// Outputs (full mode):
//   bench_results/dse_campaign.csv       — one row per explored design
//   bench_results/REPORT.md              — a "## Design-space exploration
//                                          campaign" section (idempotent)
//   bench_results/dse_reproducers/*.json — shrunk failure reproducers, if
//                                          any oracle failed (copy into
//                                          tests/fixtures/dse/ to pin them)
// Smoke mode (--smoke, used by CI): a small sweep written to
// bench_results/dse_smoke.csv only; byte-identical across reruns and
// --threads values (every case is sampled from (campaign_seed, index),
// never from time or thread id).
//
// Scaling out (docs/MODEL.md §15): `--store DIR` attaches the persistent
// content-addressed result store (profiles + analytic estimates survive
// restarts and are shared between processes); `--shard i/N` evaluates
// only indices where index % N == i, writing `<name>.shardIofN.csv`.
// `tools/merge_shards.py` reassembles the N shard CSVs into a file
// byte-identical to the unsharded run.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench/bench_common.hpp"
#include "dse/campaign.hpp"
#include "store/store.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;

// Exit codes follow the PR 4 scheme: 0 ok / 1 failures found / 2 usage /
// 3 config / 5 store error. PR 9 adds 6 (interrupted and drained) and
// 7 (completed with quarantined jobs); 6 beats 7 beats 1.
constexpr int kExitFailures = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 3;
constexpr int kExitStore = 5;
constexpr int kExitInterrupted = 6;
constexpr int kExitQuarantined = 7;

/// Set (only) by SIGINT/SIGTERM; the campaign polls it as an admission
/// gate, drains in-flight jobs, and flushes the journal.
std::atomic<bool> g_stop{false};

constexpr const char* kSynopsis =
    "[--threads N] [--count N] [--seed S] [--tier auto|analytic|cycle]"
    " [--smoke] [--store DIR] [--shard I/N] [--assert-warm]"
    " [--boards N] [--board-topology chain|ring|mesh]"
    " [--journal FILE] [--resume] [--job-timeout S]\n"
    "       [--search anneal] [--search-restarts N]"
    " [--search-iterations N]";

constexpr const char* kDetails =
    "\n"
    "Property-based design-space exploration campaign: sweeps\n"
    "generated design points through profiling, Algorithm 1 and the\n"
    "tiered evaluation engine, checks the invariant oracles, and\n"
    "shrinks failures into JSON reproducers.\n"
    "\n"
    "  --threads N     worker threads (0 = hardware concurrency)\n"
    "  --count N       design points to sweep (default 1000; 32 with"
    " --smoke)\n"
    "  --seed S        campaign seed (default 1)\n"
    "  --tier MODE     auto | analytic | cycle (default cycle)\n"
    "  --smoke         small CI sweep -> bench_results/dse_smoke.csv\n"
    "  --store DIR     persistent content-addressed result store\n"
    "  --shard I/N     evaluate only indices with index % N == I\n"
    "  --assert-warm   fail unless the store served >= 1 hit\n"
    "  --boards N      sample board counts in [1, N]; N > 1 runs the\n"
    "                  two-level multi-board design on sampled rows\n"
    "  --board-topology chain|ring|mesh   inter-board network shape\n"
    "  --journal FILE  append-only run journal: every settled design\n"
    "                  is checkpointed the moment it completes\n"
    "  --resume        skip designs already journaled for this exact\n"
    "                  campaign (requires --journal)\n"
    "  --job-timeout S wall-clock watchdog per design; a design that\n"
    "                  exceeds it is quarantined, not retried\n"
    "  --search anneal run the seeded annealer on every design and\n"
    "                  record it next to Algorithm 1 (searched_* CSV\n"
    "                  columns + the REPORT Pareto section)\n"
    "  --search-restarts N    annealer restarts per design"
    " (default 2)\n"
    "  --search-iterations N  annealer iterations per restart"
    " (default 60)\n"
    "  --version       print the engine revision and exit 0\n"
    "  --help          print this help and exit 0\n"
    "\n"
    "SIGINT/SIGTERM stop admission, drain in-flight designs, flush\n"
    "the journal, and exit 6; a later --resume run continues where\n"
    "the drain stopped.\n"
    "\n"
    "Exit codes:\n"
    "  0  campaign completed, every oracle passed\n"
    "  1  campaign completed with oracle failures (or errors)\n"
    "  2  usage error: unknown flag or malformed value\n"
    "  3  semantic configuration error\n"
    "  5  store error: --store directory unusable (or --assert-warm"
    " cold)\n"
    "  6  interrupted by SIGINT/SIGTERM and drained cleanly\n"
    "  7  campaign completed but quarantined >= 1 poison design\n";

/// `value` as a positive 32-bit count for `flag`.
std::uint32_t positive_u32(const std::string& flag, const std::string& value) {
  const std::uint64_t n = util::unsigned_flag(flag, value, UINT32_MAX);
  if (n == 0) {
    throw util::UsageError{flag + " expects a positive integer, got '" +
                           value + "'"};
  }
  return static_cast<std::uint32_t>(n);
}

/// The command line, bound straight into the campaign's options.
struct Command {
  dse::CampaignOptions campaign;
  bool smoke = false;
  /// CI warm-restart smoke: exit kExitStore unless the store served at
  /// least one profile (proves a second --store run actually hits L2).
  bool assert_warm = false;
};

Command parse(int argc, char** argv) {
  Command command;
  dse::CampaignOptions& campaign = command.campaign;
  bool count_given = false;
  std::string board_topology = "chain";
  util::Flags flags{kSynopsis, kDetails};
  flags.version("dse_campaign engine revision " +
                std::to_string(store::kEngineRevision));
  flags.on("--resume", campaign.resume)
      .on("--smoke", command.smoke)
      .on("--assert-warm", command.assert_warm)
      .value("--threads", campaign.threads)
      .value("--seed", campaign.campaign_seed)
      .value("--store", campaign.store_dir)
      .value("--journal", campaign.journal_path);
  flags.value("--count", [&](const std::string& v) {
    campaign.count = util::unsigned_flag("--count", v, UINT64_MAX);
    count_given = true;
  });
  flags.value("--job-timeout", [&](const std::string& v) {
    campaign.job_timeout_seconds = util::double_flag("--job-timeout", v);
    if (!(campaign.job_timeout_seconds > 0.0)) {
      throw util::UsageError{
          "--job-timeout expects a positive number of seconds, got '" + v +
          "'"};
    }
  });
  flags.value("--shard", [&](const std::string& v) {
    const std::size_t slash = v.find('/');
    if (slash == std::string::npos) {
      throw util::UsageError{"--shard expects I/N (e.g. --shard 0/2)"};
    }
    campaign.shard_index =
        util::unsigned_flag("--shard", v.substr(0, slash), UINT64_MAX);
    campaign.shard_count =
        util::unsigned_flag("--shard", v.substr(slash + 1), UINT64_MAX);
  });
  flags.value("--tier", [&](const std::string& v) {
    const auto mode = tiers::parse_tier_mode(v);
    if (!mode) {
      throw util::UsageError{"unknown --tier value '" + v +
                             "' (expected auto, analytic, or cycle)"};
    }
    campaign.tier = *mode;
  });
  flags.value("--search", [&](const std::string& v) {
    if (v != "anneal") {
      throw util::UsageError{"unknown --search value '" + v +
                             "' (expected anneal)"};
    }
    campaign.search = true;
  });
  flags.value("--search-restarts", [&](const std::string& v) {
    campaign.search_restarts = positive_u32("--search-restarts", v);
  });
  flags.value("--search-iterations", [&](const std::string& v) {
    campaign.search_iterations = positive_u32("--search-iterations", v);
  });
  flags.value("--boards", [&](const std::string& v) {
    campaign.space.max_boards = positive_u32("--boards", v);
  });
  flags.value("--board-topology", [&](const std::string& v) {
    if (v != "chain" && v != "ring" && v != "mesh") {
      throw util::UsageError{"unknown --board-topology value '" + v +
                             "' (expected chain, ring, or mesh)"};
    }
    board_topology = v;
  });
  flags.parse_or_exit(argc, argv, [&] {
    if (const std::optional<std::string> error =
            dse::options_error(campaign)) {
      throw util::UsageError{*error};
    }
  });
  // A single-board sweep keeps the default topology list: it is part of
  // the campaign fingerprint, so --board-topology alone changes no journal.
  if (campaign.space.multi_board()) {
    campaign.space.board_topologies = {board_topology};
  }
  if (command.smoke) {
    // CI smoke: keep the sweep cheap and skip shrinking (a shrink run
    // re-executes the pipeline dozens of times).
    campaign.space.max_kernels = 6;
    campaign.max_shrinks = 0;
    if (!count_given) {
      campaign.count = 32;
    }
  }
  campaign.stop_requested = &g_stop;
  return command;
}

}  // namespace

int main(int argc, char** argv) {
  Command command = parse(argc, argv);
  const dse::CampaignOptions& campaign = command.campaign;
  util::install_stop_signals(g_stop);

  // Test harness hook: HYBRIDIC_WEDGE_INDEX=N wedges design N forever,
  // exercising the watchdog/quarantine path from the real binary. The
  // abandoned thread sleeps until process exit.
  if (const char* wedge_env = std::getenv("HYBRIDIC_WEDGE_INDEX")) {
    std::uint64_t wedge_index = 0;
    if (!util::parse_u64(wedge_env, wedge_index)) {
      std::cerr << "HYBRIDIC_WEDGE_INDEX expects a design index, got '"
                << wedge_env << "'\n";
      return kExitUsage;
    }
    command.campaign.job_started_hook = [wedge_index](std::uint64_t index) {
      while (index == wedge_index) {
        std::this_thread::sleep_for(std::chrono::seconds(3600));
      }
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  dse::CampaignResult result;
  try {
    result = dse::run_campaign(campaign);
  } catch (const store::StoreError& e) {
    std::cerr << "store error: " << e.what() << "\n";
    return kExitStore;
  } catch (const ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfig;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t failures = 0;
  for (const auto& outcome : result.cases) {
    if (!outcome.all_pass()) {
      ++failures;
    }
  }

  const dse::TierStats& tiers_ran = result.tier_stats;
  std::cout << "tier=" << tiers::to_string(campaign.tier) << " analytic="
            << tiers_ran.analytic_evals << " cycle=" << tiers_ran.cycle_evals
            << " band_violations=" << tiers_ran.band_violations << " elapsed="
            << elapsed << "s ("
            << (elapsed > 0.0
                    ? static_cast<double>(result.cases.size()) / elapsed
                    : 0.0)
            << " designs/s)\n";
  if (campaign.shard_count > 1) {
    std::cout << "shard " << campaign.shard_index << "/"
              << campaign.shard_count << ": " << result.cases.size()
              << " of " << campaign.count << " designs\n";
  }
  if (!campaign.journal_path.empty()) {
    std::cout << "journal " << campaign.journal_path
              << ": resumed=" << result.resumed_count
              << " quarantined=" << result.quarantined_count
              << " drained=" << result.skipped_count
              << " damaged_lines=" << result.journal_skipped_lines << "\n";
  }
  if (result.interrupted) {
    std::cout << "interrupted: admission stopped, in-flight designs "
                 "drained, journal flushed ("
              << result.skipped_count << " designs not started)\n";
  }

  // Live cache/store counters: stdout only — they vary with thread count,
  // shard split, and store warmth, so they never enter the CSV/REPORT.
  const apps::ProfileCacheStats& pc = result.profile_cache_stats;
  std::cout << "profile_cache hits=" << pc.hits << " misses=" << pc.misses
            << " l2_hits=" << pc.l2_hits << " l2_stores=" << pc.l2_stores
            << " evictions=" << pc.evictions << " resident_entries="
            << pc.entries << " resident_bytes=" << pc.resident_bytes
            << "\n";
  std::cout << "estimate_l2 hits=" << result.estimate_l2_hits
            << " stores=" << result.estimate_l2_stores << "\n";
  if (result.store_stats.has_value()) {
    const store::StoreStats& ss = *result.store_stats;
    std::cout << "store puts=" << ss.puts << " hits=" << ss.hits
              << " misses=" << ss.misses << " corrupt=" << ss.corrupt_entries
              << "\n";
  }
  if (command.assert_warm) {
    if (!result.store_stats.has_value() ||
        result.store_stats->hits == 0) {
      std::cerr << "--assert-warm: the store served zero hits (expected a "
                   "warm restart to reuse persisted artifacts)\n";
      return kExitStore;
    }
    std::cout << "warm restart confirmed: " << result.store_stats->hits
              << " store hits\n";
  }

  // Shard runs suffix their CSV so N concurrent shards (sharing one
  // store) never clobber each other; the merge tool globs the suffix.
  std::string name = command.smoke ? "dse_smoke" : "dse_campaign";
  if (campaign.shard_count > 1) {
    name += ".shard" + std::to_string(campaign.shard_index) + "of" +
            std::to_string(campaign.shard_count);
  }
  const std::string path = bench::csv_path(name);
  std::ofstream{path} << dse::campaign_csv(result);
  const bool report = !command.smoke && campaign.shard_count <= 1;
  if (report) {
    bench::patch_report_section(dse::campaign_section_marker(),
                                dse::campaign_markdown(result, campaign));
  }
  // Smoke skips oracle shrinking (max_shrinks 0) but still pins poison
  // designs: quarantine reproducers bypass that budget.
  const std::vector<std::string> saved =
      dse::save_reproducers(result, "bench_results/dse_reproducers");
  std::cout << "wrote " << path << " (" << result.cases.size() << " designs, "
            << failures << " with failures)"
            << (report ? " and the REPORT.md campaign section" : "") << "\n";
  for (const std::string& p : saved) {
    std::cout << "shrunk reproducer: " << p << "\n";
  }
  // Precedence: a drain outranks quarantine outranks oracle failures —
  // the caller must first learn the run is incomplete, then that some
  // designs never produced a verdict, then the verdicts themselves.
  if (result.interrupted) {
    return kExitInterrupted;
  }
  if (result.quarantined_count > 0) {
    return kExitQuarantined;
  }
  return failures == 0 ? 0 : kExitFailures;
}
