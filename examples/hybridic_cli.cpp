// hybridic_cli — command-line driver for the whole pipeline.
//
//   hybridic_cli <app> [options]
//
//   <app>        canny | jpeg | klt | fluid | synthetic:<seed>
//   --design     print the custom interconnect design (Fig. 6 style)
//   --profile    print the communication profile (Fig. 5 style)
//   --dot        print the profile as Graphviz DOT
//   --memory     print the profiler's flat memory report
//   --timeline   print an ASCII timeline of the proposed-system run
//   --trace      print per-fabric trace lanes + Chrome-trace JSON
//   --json       print the design as JSON (toolchain hand-off)
//   --validate   run the design validator and print its findings
//   --search     run the seeded annealer (src/search/) next to Algorithm 1
//                and print the comparison; cycle tiers also validate the
//                incumbent against its own analytic band
//   --frames N   report pipelined multi-frame throughput over N frames
//   --fault-rate R   inject faults at per-event rate R (CRC+retry on)
//   --fault-seed S   RNG seed for fault injection (default 1)
//   --tier MODE  evaluation tier: cycle (default) runs the cycle-accurate
//                engine as before; analytic prices the design with the
//                fast tier only (no simulation — sim-only outputs are
//                skipped with a note); auto runs both and reports whether
//                the measured time landed inside the analytic band
//   --boards N   two-level design over N boards: min-cut board partition,
//                then per-board Algorithm 1; N=1 (default) is the exact
//                single-board pipeline
//   --board-topology T   inter-board network: chain | ring | mesh
//   --store DIR  persistent content-addressed profile store (docs/MODEL.md
//                §15): profiles load from DIR when present (skipping the
//                QUAD pass) and fresh profiles are written back
//   --all        everything above plus the system comparison (default)
//   --version    print the engine revision and exit 0
//   --help       print usage and exit 0
//
// Valued flags take `--flag V` or `--flag=V` (util/cli.hpp).
//
// Exit codes (scripted callers rely on these staying distinct):
//   0  run completed and the application verified
//   1  run completed but verification failed (or unexpected error)
//   2  usage error: unknown flag / malformed value / unknown app
//   3  semantic configuration error (rejected before or during setup)
//   4  simulation timeout or deadlock (stuck operations reported)
//   5  store error: --store directory cannot be created or written
//
// Examples:
//   ./build/examples/hybridic_cli jpeg --design --timeline
//   ./build/examples/hybridic_cli synthetic:42 --all
//   ./build/examples/hybridic_cli canny --fault-rate=0.001 --trace
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "core/design_validate.hpp"
#include "core/interconnect_design.hpp"
#include "core/json_export.hpp"
#include "core/multi_board_design.hpp"
#include "sys/multi_board.hpp"
#include "tiers/analytic.hpp"
#include "prof/dot_export.hpp"
#include "sys/engine/chrome_trace.hpp"
#include "sys/experiment.hpp"
#include "search/anneal.hpp"
#include "sys/pipeline_executor.hpp"
#include "store/adapters.hpp"
#include "store/store.hpp"
#include "sys/timeline.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace hybridic;

namespace {

constexpr int kExitVerified = 0;
constexpr int kExitUnverified = 1;
constexpr int kExitConfig = 3;
constexpr int kExitTimeout = 4;
constexpr int kExitStore = 5;

const std::set<std::string> kKnownApps = {"canny", "jpeg", "klt", "fluid"};

struct CliOptions {
  std::string app_spec;
  std::set<std::string> flags;
  std::uint32_t frames = 0;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 1;
  tiers::TierMode tier = tiers::TierMode::kCycle;
  std::string store_dir;  ///< Empty = no persistent store.
  std::uint32_t boards = 1;
  std::string board_topology = "chain";
};

/// The seed of a "synthetic:<seed>" app spec; UsageError when malformed.
std::uint64_t synthetic_seed(const std::string& spec) {
  return util::unsigned_flag("synthetic seed",
                             spec.substr(std::string{"synthetic:"}.size()),
                             UINT64_MAX);
}

/// Validate the whole command line up front, before any expensive work, so
/// a typo in the last flag fails in milliseconds and not after a profile run.
CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  util::Flags flags{
      "<canny|jpeg|klt|fluid|synthetic:SEED> [--design] [--profile] [--dot]"
      " [--memory] [--timeline] [--trace] [--json] [--validate] [--search]"
      " [--frames N] [--fault-rate R] [--fault-seed S]"
      " [--tier auto|analytic|cycle] [--store DIR] [--boards N]"
      " [--board-topology chain|ring|mesh] [--all]",
      "  --store DIR  reuse profiles from (and publish them to) a persistent\n"
      "               content-addressed store; exit code 5 when DIR is"
      " unusable\n"};
  flags.version("hybridic_cli engine revision " +
                std::to_string(store::kEngineRevision));
  flags.value("--frames", options.frames)
      .value("--fault-rate", options.fault_rate)
      .value("--fault-seed", options.fault_seed)
      .value("--store", options.store_dir);
  flags.positional([&options](const std::string& app) {
    if (!options.app_spec.empty()) {
      throw util::UsageError{"unexpected argument '" + app + "'"};
    }
    if (kKnownApps.count(app) == 0) {
      if (app.rfind("synthetic:", 0) != 0) {
        throw util::UsageError{
            "unknown app '" + app +
            "' (expected canny|jpeg|klt|fluid|synthetic:SEED)"};
      }
      (void)synthetic_seed(app);  // Re-read by load_app.
    }
    options.app_spec = app;
  });
  flags.value("--tier", [&options](const std::string& value) {
    const auto mode = tiers::parse_tier_mode(value);
    if (!mode) {
      throw util::UsageError{"unknown --tier value '" + value +
                             "' (expected auto, analytic, or cycle)"};
    }
    options.tier = *mode;
  });
  flags.value("--boards", [&options](const std::string& value) {
    options.boards = static_cast<std::uint32_t>(
        util::unsigned_flag("--boards", value, UINT32_MAX));
    if (options.boards == 0) {
      throw util::UsageError{"--boards must be >= 1"};
    }
  });
  flags.value("--board-topology", [&options](const std::string& value) {
    if (value != "chain" && value != "ring" && value != "mesh") {
      throw util::UsageError{"unknown --board-topology value '" + value +
                             "' (expected chain, ring, or mesh)"};
    }
    options.board_topology = value;
  });
  for (const std::string name :
       {"--design", "--profile", "--dot", "--memory", "--timeline", "--trace",
        "--json", "--validate", "--search", "--all"}) {
    flags.on(name, [&options, name] { options.flags.insert(name); });
  }
  flags.parse_or_exit(argc, argv, [&options] {
    if (options.app_spec.empty()) {
      throw util::UsageError{"missing <app> argument"};
    }
  });
  return options;
}

/// Load (or restore from the store) the requested application. With a
/// store the profile round-trips through the content-addressed L2: a warm
/// directory skips the QUAD pass entirely, a cold one gets populated.
std::shared_ptr<const apps::ProfiledApp> load_app(
    const std::string& spec, const std::string& store_dir) {
  apps::ProfileCache cache;
  if (!store_dir.empty()) {
    cache.set_l2(std::make_shared<store::ProfileStoreL2>(
        std::make_shared<store::Store>(store_dir)));
  }
  if (spec.rfind("synthetic:", 0) == 0) {
    apps::SyntheticConfig config;
    config.seed = synthetic_seed(spec);
    return cache.synthetic_app(config);
  }
  return cache.paper_app(spec);
}

/// The analytic tier's one-screen summary (docs/MODEL.md §14).
void print_estimate(const tiers::TierEstimate& est) {
  std::cout << "analytic tier estimate (" << est.solution_tag << "):\n"
            << "  baseline kernel time  "
            << format_fixed(est.baseline_kernel_seconds * 1e3, 3)
            << " ms  (band "
            << format_fixed(est.baseline_lower_seconds * 1e3, 3) << " .. "
            << format_fixed(est.baseline_upper_seconds * 1e3, 3)
            << " ms)\n"
            << "  designed kernel time  "
            << format_fixed(est.designed_kernel_seconds * 1e3, 3)
            << " ms  (band "
            << format_fixed(est.designed_lower_seconds * 1e3, 3) << " .. "
            << format_fixed(est.designed_upper_seconds * 1e3, 3)
            << " ms)\n"
            << "  NoC routing           " << est.noc_edges << " edges, "
            << est.noc_volume_bytes << " bytes, " << est.noc_hop_bytes
            << " hop-bytes (busiest link " << est.noc_max_link_bytes
            << " bytes)\n"
            << "  congruence key        " << std::hex << est.congruence_key
            << std::dec << "\n\n";
}

/// One-screen "Algorithm 1 vs searched" summary. Fixed seed: the CLI's
/// output is a determinism contract like everything else it prints.
void print_search(const search::SearchResult& sr) {
  const search::SearchRecord r = sr.record();
  std::cout << "annealed search (" << r.solution_tag << "):\n"
            << "  algorithm 1  "
            << format_fixed(r.algorithm1_analytic_seconds * 1e3, 3)
            << " ms analytic, " << r.algorithm1_luts << " LUTs\n"
            << "  searched     " << format_fixed(r.analytic_seconds * 1e3, 3)
            << " ms analytic, " << r.luts << " LUTs  (gain "
            << format_ratio(r.gain) << ", restart " << r.best_restart
            << ")\n"
            << "  moves        " << r.proposed << " proposed, " << r.accepted
            << " accepted, " << r.rejected_illegal << " rejected illegal, "
            << r.cache_hits << " congruence-cache hits\n";
  if (sr.cycle.has_value()) {
    std::cout << "  cycle check  "
              << format_fixed(sr.cycle->measured_kernel_seconds * 1e3, 3)
              << " ms — "
              << (sr.cycle->within_band ? "inside" : "OUTSIDE")
              << " the analytic band\n";
  }
  std::cout << "\n";
}

/// Two-level design summary: the board partition and (when simulated) the
/// multi-board run.
void print_multi_board(const core::MultiBoardDesign& multi,
                       const std::string& topology,
                       const sys::MultiBoardRunResult* run) {
  const core::BoardPartition& part = multi.partition;
  std::cout << "two-level design: " << part.board_count << " boards ("
            << topology << " links)\n";
  for (std::uint32_t b = 0; b < part.board_count; ++b) {
    std::cout << "  board " << b << ": "
              << multi.board_kernels[b].size() << " kernels, intra-board "
              << part.intra_board_bytes[b].count() << " bytes\n";
  }
  std::cout << "  cut: " << multi.cut_edges.size() << " edges, "
            << part.cut_bytes.count() << " of " << part.total_bytes.count()
            << " bytes cross boards (" << part.refinement_moves
            << " refinement moves)\n";
  if (run != nullptr) {
    std::cout << "  multi-board run: total "
              << format_fixed(run->run.total_seconds * 1e3, 3) << " ms, "
              << run->inter_board_transfers << " link transfers, "
              << run->inter_board_bytes << " bytes, link busy "
              << format_fixed(run->inter_board_busy_seconds * 1e3, 3)
              << " ms, reroutes " << run->board_link_reroutes << "\n";
  }
  std::cout << "\n";
}

/// The --validate report of `design`.
void print_validation(const core::DesignResult& design,
                      const sys::AppSchedule& schedule) {
  const auto issues = core::validate_design(design, schedule.specs);
  if (issues.empty()) {
    std::cout << "design validation: clean\n\n";
  } else {
    std::cout << "design validation:\n"
              << core::format_issues(issues) << "\n";
  }
}

/// The two-level design of `input` over --boards boards, and the
/// multi-board platform it runs on.
struct MultiBoardPlan {
  core::MultiBoardDesign design;
  sys::MultiBoardConfig config;
};

MultiBoardPlan plan_multi_board(const CliOptions& cli,
                                const core::DesignInput& input,
                                const sys::PlatformConfig& platform) {
  core::MultiBoardDesignInput minput;
  minput.base = input;
  minput.board_count = cli.boards;
  MultiBoardPlan plan{core::design_multi_board(minput), {}};
  plan.config.board = platform;
  plan.config.board_count = cli.boards;
  plan.config.topology = core::parse_board_topology(cli.board_topology);
  return plan;
}

int run_cli(const CliOptions& cli) {
  std::set<std::string> flags = cli.flags;
  // Remembered across the --all remap below.
  const bool do_search = cli.flags.count("--search") > 0;
  std::uint32_t frames = cli.frames;
  if (flags.count("--all") > 0) {
    flags = {"--design", "--profile", "--memory", "--timeline",
             "--validate", "--compare"};
    if (frames == 0) {
      frames = 32;
    }
  } else if (flags.empty() && frames == 0) {
    flags = {"--design", "--profile", "--memory", "--timeline",
             "--compare"};
  } else {
    flags.insert("--compare");
  }

  sys::PlatformConfig platform_config;
  if (cli.fault_rate != 0.0) {
    require(cli.fault_rate > 0.0 && cli.fault_rate <= 1.0,
            "--fault-rate must be a probability in (0, 1], got " +
                std::to_string(cli.fault_rate));
    platform_config.faults =
        faults::FaultSpec::at_rate(cli.fault_rate, cli.fault_seed);
  }

  const std::shared_ptr<const apps::ProfiledApp> app_ptr =
      load_app(cli.app_spec, cli.store_dir);
  const apps::ProfiledApp& app = *app_ptr;
  std::cout << "application: " << app.name << "  verification: "
            << (app.verified ? "PASS" : "FAIL") << " ("
            << app.verification_note << ")\n\n";

  if (flags.count("--profile") > 0) {
    std::cout << app.graph().summary() << "\n";
  }
  if (flags.count("--dot") > 0) {
    std::set<prof::FunctionId> hw;
    for (const auto& entry : app.calibration) {
      if (entry.is_kernel) {
        hw.insert(app.graph().id_of(entry.function));
      }
    }
    std::cout << prof::to_dot(app.graph(), hw) << "\n";
  }
  if (flags.count("--memory") > 0) {
    std::cout << app.profiler->memory_report() << "\n";
  }

  const sys::AppSchedule schedule = app.schedule();

  if (cli.tier == tiers::TierMode::kAnalytic) {
    // Fast tier only: Algorithm 1 plus the hop-count x volume pricing —
    // the cycle-accurate engine is never touched, so simulation-derived
    // outputs are unavailable.
    const core::DesignInput input =
        sys::make_design_input(schedule, platform_config);
    const core::DesignResult design = core::design_interconnect(input);
    tiers::TierEstimate est = tiers::analytic_estimate(
        schedule, design, platform_config, input.theta.seconds_per_byte);
    est.congruence_key = tiers::congruence_key_of(tiers::congruence_signature(
        schedule, design, input.theta.seconds_per_byte));
    if (flags.count("--design") > 0) {
      std::cout << design.describe(app.graph()) << "\n";
    }
    if (flags.count("--json") > 0) {
      std::cout << core::to_json(design, schedule.specs) << "\n";
    }
    if (flags.count("--validate") > 0) {
      print_validation(design, schedule);
    }
    print_estimate(est);
    if (do_search) {
      print_search(
          search::anneal_interconnect(schedule, input, platform_config, {}));
    }
    if (cli.boards > 1) {
      const MultiBoardPlan multi =
          plan_multi_board(cli, input, platform_config);
      const tiers::TierEstimate mest = tiers::analytic_estimate_multi(
          schedule, multi.design, multi.config,
          input.theta.seconds_per_byte);
      print_multi_board(multi.design, cli.board_topology, nullptr);
      std::cout << "inter-board analytic term: " << mest.inter_board_edges
                << " cut edges, " << mest.inter_board_bytes << " bytes, "
                << mest.inter_board_hop_bytes
                << " hop-bytes, serialized "
                << format_fixed(mest.inter_board_seconds * 1e3, 3)
                << " ms\n"
                << "designed band (multi-board) "
                << format_fixed(mest.designed_lower_seconds * 1e3, 3)
                << " .. "
                << format_fixed(mest.designed_upper_seconds * 1e3, 3)
                << " ms\n\n";
    }
    for (const char* skipped : {"--timeline", "--trace", "--compare"}) {
      if (flags.count(skipped) > 0) {
        std::cout << skipped
                  << " needs the cycle-accurate engine; rerun with"
                     " --tier=cycle or --tier=auto\n";
      }
    }
    if (frames > 0 || cli.fault_rate != 0.0) {
      std::cout << "pipelining and fault injection need the cycle-accurate"
                   " engine; rerun with --tier=cycle or --tier=auto\n";
    }
    return app.verified ? kExitVerified : kExitUnverified;
  }

  const sys::AppExperiment exp =
      sys::run_experiment(schedule, platform_config, app.environment);

  if (cli.tier == tiers::TierMode::kAuto) {
    // Both tiers: price analytically, then report whether the simulated
    // designed kernel time landed inside the calibrated band.
    tiers::TieredEvaluator evaluator{platform_config};
    const tiers::TierEstimate est =
        evaluator.estimate(schedule, exp.proposed_design);
    print_estimate(est);
    const double measured = exp.proposed.kernel_seconds();
    std::cout << "cycle-accurate designed kernel time "
              << format_fixed(measured * 1e3, 3) << " ms — "
              << (est.contains_designed(measured) ? "inside" : "OUTSIDE")
              << " the analytic band\n\n";
  }

  if (do_search) {
    // Cycle tiers close the loop: the incumbent is simulated and checked
    // against its own analytic band.
    search::AnnealOptions sopt;
    sopt.cycle_validate = true;
    const core::DesignInput input =
        sys::make_design_input(schedule, platform_config);
    print_search(
        search::anneal_interconnect(schedule, input, platform_config, sopt));
  }

  if (flags.count("--design") > 0) {
    std::cout << exp.proposed_design.describe(app.graph()) << "\n";
  }
  if (flags.count("--json") > 0) {
    std::cout << core::to_json(exp.proposed_design, schedule.specs)
              << "\n";
  }
  if (flags.count("--validate") > 0) {
    print_validation(exp.proposed_design, schedule);
  }
  if (flags.count("--timeline") > 0) {
    std::cout << sys::render_timeline(exp.proposed) << "\n";
  }
  if (flags.count("--trace") > 0) {
    std::cout << sys::render_trace_lanes(exp.proposed) << "\n";
    std::cout << sys::engine::chrome_trace_json(
                     exp.proposed.trace, exp.proposed.system_name)
              << "\n\n";
  }
  if (cli.fault_rate != 0.0) {
    const faults::FaultStats& fs = exp.proposed.fault_stats;
    std::cout << "fault injection (rate " << cli.fault_rate << ", seed "
              << cli.fault_seed << "): " << fs.flits_corrupted
              << " flits corrupted, " << fs.packets_retransmitted
              << " retransmits, " << fs.bus_errors << " bus errors, "
              << fs.mem_bitflips << " memory bit flips, "
              << fs.corrupted_bytes << " corrupted bytes delivered\n\n";
  }
  if (frames > 0) {
    const sys::PipelineResult pipelined = sys::run_designed_pipelined(
        schedule, exp.proposed_design, platform_config, frames);
    std::cout << "pipelined over " << frames << " frames: makespan "
              << format_fixed(pipelined.makespan_seconds * 1e3, 2)
              << " ms, throughput "
              << format_fixed(pipelined.throughput_fps(), 1)
              << " fps, bottleneck: " << pipelined.bottleneck_stage
              << "\n\n";
  }
  if (cli.boards > 1) {
    const MultiBoardPlan multi = plan_multi_board(
        cli, sys::make_design_input(schedule, platform_config),
        platform_config);
    const sys::MultiBoardRunResult mrun =
        sys::run_designed_multi(schedule, multi.design, multi.config);
    print_multi_board(multi.design, cli.board_topology, &mrun);
  }
  if (flags.count("--compare") > 0) {
    Table table{"System comparison"};
    table.set_header(
        {"system", "total", "vs SW", "vs baseline", "LUTs", "regs"});
    const auto row = [&](const std::string& name,
                         const sys::RunResult& run,
                         const core::Resources& res) {
      table.add_row(
          {name, format_fixed(run.total_seconds * 1e3, 3) + " ms",
           format_ratio(exp.sw.total_seconds / run.total_seconds),
           format_ratio(exp.baseline.total_seconds / run.total_seconds),
           std::to_string(res.luts), std::to_string(res.regs)});
    };
    row("software", exp.sw, core::Resources{0, 0});
    row("baseline", exp.baseline, exp.baseline_resources);
    row("proposed", exp.proposed, exp.proposed_resources);
    row("noc-only", exp.noc_only, exp.noc_only_resources);
    table.render(std::cout);
    std::cout << "design solution: "
              << exp.proposed_design.solution_tag() << "   energy saved: "
              << format_percent(1.0 - exp.energy_ratio_vs_baseline())
              << "\n";
  }
  return app.verified ? kExitVerified : kExitUnverified;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  try {
    return run_cli(cli);
  } catch (const SimTimeoutError& error) {
    std::cerr << "timeout: " << error.what() << "\n";
    for (const std::string& op : error.stuck_ops()) {
      std::cerr << "  stuck: " << op << "\n";
    }
    return kExitTimeout;
  } catch (const store::StoreError& error) {
    std::cerr << "store error: " << error.what() << "\n";
    return kExitStore;
  } catch (const ConfigError& error) {
    std::cerr << "config error: " << error.what() << "\n";
    return kExitConfig;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return kExitUnverified;
  }
}
