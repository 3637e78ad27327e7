// hybench_mirror: the traced run of the benchmark. It replays one
// workload from the library's public functions, in the order the program
// under test calls them, with a host-time span around each layer call:
//
//   sweep-analytic  dse_campaign --tier analytic (store + journal)
//   sweep-cycle     dse_campaign --tier cycle
//   serve-mix       hybridic_serve on the benchmark's request stream
//   paper-apps      report_all --threads 1
//
// It writes the mirrored outputs (campaign CSV, serve replies, design
// JSON and table rows) and work counters (counters.txt, in the lines the
// program prints) so run.py can prove both equal the untraced program's,
// plus a per-layer summary (layers.json) and every span as a Chrome trace
// (trace.json).
//
//   hybench_mirror --workload W --seed S --out DIR
//   hybench_mirror --emit-requests FILE --seed S
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "bench/bench_common.hpp"
#include "core/design_validate.hpp"
#include "core/energy_model.hpp"
#include "core/interconnect_design.hpp"
#include "core/json_export.hpp"
#include "core/resource_model.hpp"
#include "dse/campaign.hpp"
#include "dse/case_runner.hpp"
#include "dse/oracles.hpp"
#include "dse/outcome_codec.hpp"
#include "hybench/mirror/spans.hpp"
#include "search/anneal.hpp"
#include "store/adapters.hpp"
#include "store/journal.hpp"
#include "store/store.hpp"
#include "sys/batch_runner.hpp"
#include "sys/crossbar_system.hpp"
#include "sys/executor.hpp"
#include "sys/experiment.hpp"
#include "sys/pipeline_executor.hpp"
#include "sys/timeline.hpp"
#include "tiers/analytic.hpp"
#include "tiers/congruence.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/table.hpp"

namespace {

using namespace hybridic;
using hybench::RequestTag;
using hybench::Scope;

/// The load run.py puts on the programs under test: four threads in the
/// sweeps, a warm-up pool of 32 serve shapes, and each sweep's design
/// count.
constexpr std::size_t kThreads = 4;
constexpr std::uint64_t kServePool = 32;
constexpr std::uint64_t kAnalyticDesigns = 2000;
constexpr std::uint64_t kCycleDesigns = 30;

struct Args {
  std::string workload;
  std::string out;
  std::string emit_requests;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "hybench_mirror: " << message << "\n"
            << "usage: hybench_mirror --workload W --seed S --out DIR\n"
               "       hybench_mirror --emit-requests FILE --seed S\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--emit-requests") {
      args.emit_requests = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  return args;
}

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

/// Flat JSON object writer (string keys; values already rendered).
class JsonObject {
public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    text_ += (text_.empty() ? "{" : ",") + ("\"" + key + "\":") + value;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  [[nodiscard]] std::string done() const {
    return text_.empty() ? "{}" : text_ + "}";
  }

private:
  std::string text_;
};

// ---------------------------------------------------------------------------
// Store adapters with spans: the L2 tiers under the profile and congruence
// caches, so store reads and writes are children of the cache spans.

class TimedProfileL2 final : public apps::ProfileL2 {
public:
  explicit TimedProfileL2(std::shared_ptr<apps::ProfileL2> inner)
      : inner_(std::move(inner)) {}
  std::shared_ptr<const apps::ProfiledApp> load(
      const std::string& key) override {
    Scope span("store.get");
    return inner_->load(key);
  }
  void store(const std::string& key, const apps::ProfiledApp& app) override {
    Scope span("store.put");
    inner_->store(key, app);
  }

private:
  std::shared_ptr<apps::ProfileL2> inner_;
};

class TimedEstimateL2 final : public tiers::EstimateL2 {
public:
  explicit TimedEstimateL2(std::shared_ptr<tiers::EstimateL2> inner)
      : inner_(std::move(inner)) {}
  std::optional<tiers::TierEstimate> load(std::uint64_t key) override {
    Scope span("store.get");
    return inner_->load(key);
  }
  void store(std::uint64_t key, const tiers::TierEstimate& estimate) override {
    Scope span("store.put");
    inner_->store(key, estimate);
  }

private:
  std::shared_ptr<tiers::EstimateL2> inner_;
};

// ---------------------------------------------------------------------------
// TieredEvaluator replayed as its public calls. The evaluator supplies the
// platform, calibration and θ (its constructor runs the θ probe); the
// congruence cache is the mirror's own, so its hit ratio is observable.

class Evaluator {
public:
  Evaluator() {
    Scope span("tiers.evaluator_init");
    evaluator_ = std::make_unique<tiers::TieredEvaluator>();
  }

  [[nodiscard]] const tiers::TieredEvaluator& inner() const {
    return *evaluator_;
  }
  tiers::CongruenceCache& cache() { return cache_; }

  tiers::TierEstimate estimate(const sys::AppSchedule& schedule,
                               const core::DesignResult& design) {
    Scope span("tiers.estimate");
    std::string signature;
    {
      Scope inner("tiers.congruence_signature");
      signature = tiers::congruence_signature(
          schedule, design, evaluator_->theta_seconds_per_byte());
    }
    return cache_.get(tiers::congruence_key_of(signature), [&] {
      Scope inner("tiers.analytic_estimate");
      return tiers::analytic_estimate(schedule, design,
                                      evaluator_->platform(),
                                      evaluator_->theta_seconds_per_byte(),
                                      evaluator_->calibration());
    });
  }

  /// TieredEvaluator::analyze: profile, Algorithm 1 twice, estimate.
  tiers::AnalyticCase analyze(const apps::SyntheticConfig& config,
                              apps::ProfileCache& profiles);

private:
  std::unique_ptr<tiers::TieredEvaluator> evaluator_;
  tiers::CongruenceCache cache_;
};

std::shared_ptr<const apps::ProfiledApp> profile_synthetic(
    apps::ProfileCache& profiles, const apps::SyntheticConfig& config) {
  Scope span("apps.profile_cache");
  return profiles.get(apps::ProfileCache::synthetic_key(config), [&config] {
    Scope inner("apps.synthetic_profile");
    return apps::make_synthetic_app(config);
  });
}

core::DesignResult algorithm1(const core::DesignInput& input) {
  Scope span("core.design_interconnect");
  return core::design_interconnect(input);
}

tiers::AnalyticCase Evaluator::analyze(const apps::SyntheticConfig& config,
                                       apps::ProfileCache& profiles) {
  tiers::AnalyticCase out;
  out.app = profile_synthetic(profiles, config);
  {
    Scope span("apps.schedule");
    out.schedule = out.app->schedule();
  }
  out.theta_seconds_per_byte = evaluator_->theta_seconds_per_byte();
  const sys::PlatformConfig& platform = evaluator_->platform();
  core::DesignInput input;
  input.graph = out.schedule.graph;
  input.kernels = out.schedule.specs;
  input.kernel_clock = platform.kernel_clock;
  input.theta.seconds_per_byte = out.theta_seconds_per_byte;
  input.stream_overhead_seconds = platform.stream_overhead_seconds;
  input.duplication_overhead_seconds = platform.duplication_overhead_seconds;
  out.proposed = algorithm1(input);
  core::DesignInput noc_only_input = input;
  noc_only_input.enable_shared_memory = false;
  noc_only_input.enable_adaptive_mapping = false;
  out.noc_only = algorithm1(noc_only_input);
  out.estimate = estimate(out.schedule, out.proposed);
  return out;
}

// ---------------------------------------------------------------------------
// The cycle pipeline (sys::run_experiment and dse::run_design_case)
// replayed as its public calls.

/// Simulated trace events of every single-frame run, for
/// sys.ns_per_trace_event.
std::atomic<std::uint64_t> g_trace_events{0};

sys::RunResult counted(sys::RunResult run) {
  g_trace_events.fetch_add(run.trace.events().size(),
                           std::memory_order_relaxed);
  return run;
}

core::DesignInput design_input(const sys::AppSchedule& schedule,
                                    const sys::PlatformConfig& platform) {
  Scope span("sys.make_design_input");
  return sys::make_design_input(schedule, platform);
}

sys::AppExperiment experiment(const sys::AppSchedule& schedule,
                                  const sys::PlatformConfig& platform,
                                  const sys::AppEnvironment& env) {
  sys::AppExperiment exp;
  exp.app_name = schedule.app_name;
  const core::DesignInput input = design_input(schedule, platform);
  exp.proposed_design = algorithm1(input);
  core::DesignInput noc_only_input = input;
  noc_only_input.enable_shared_memory = false;
  noc_only_input.enable_adaptive_mapping = false;
  exp.noc_only_design = algorithm1(noc_only_input);
  {
    Scope span("sys.run_software");
    exp.sw = counted(sys::run_software(schedule, platform));
  }
  {
    Scope span("sys.run_baseline");
    exp.baseline = counted(sys::run_baseline(schedule, platform));
  }
  {
    Scope span("sys.run_designed");
    exp.proposed = counted(sys::run_designed(schedule, exp.proposed_design,
                                             platform, "proposed"));
  }
  {
    Scope span("sys.run_designed");
    exp.noc_only = counted(sys::run_designed(schedule, exp.noc_only_design,
                                             platform, "noc-only"));
  }
  Scope span("core.resources");
  const core::Resources bus_area{
      core::component_cost(core::Component::kBus).luts,
      core::component_cost(core::Component::kBus).regs};
  core::Resources baseline_kernels{0, 0};
  for (const core::KernelSpec& spec : schedule.specs) {
    baseline_kernels += core::Resources{spec.area_luts, spec.area_regs};
  }
  exp.kernel_area = core::kernel_resources(exp.proposed_design, schedule.specs);
  exp.interconnect_area = core::interconnect_resources(exp.proposed_design);
  exp.baseline_resources =
      env.base_infrastructure + bus_area + baseline_kernels;
  exp.proposed_resources = env.base_infrastructure + bus_area +
                           exp.kernel_area + exp.interconnect_area;
  exp.noc_only_resources =
      env.base_infrastructure + bus_area +
      core::kernel_resources(exp.noc_only_design, schedule.specs) +
      core::interconnect_resources(exp.noc_only_design);
  exp.baseline_power_watts =
      core::system_power_watts(exp.baseline_resources, env.power);
  exp.proposed_power_watts =
      core::system_power_watts(exp.proposed_resources, env.power);
  exp.baseline_energy_joules = core::energy_joules(
      exp.baseline_power_watts, exp.baseline.total_seconds);
  exp.proposed_energy_joules = core::energy_joules(
      exp.proposed_power_watts, exp.proposed.total_seconds);
  return exp;
}

dse::DesignCase design_case(const apps::SyntheticConfig& config,
                                apps::ProfileCache& profiles) {
  if (config.board_count > 1) {
    usage("the mirror replays single-board sweeps only");
  }
  dse::DesignCase c;
  c.config = config;
  c.app = profile_synthetic(profiles, config);
  {
    Scope span("apps.schedule");
    c.schedule = c.app->schedule();
  }
  const sys::PlatformConfig platform;
  c.theta_seconds_per_byte =
      design_input(c.schedule, platform).theta.seconds_per_byte;
  c.exp = experiment(c.schedule, platform, c.app->environment);
  {
    Scope span("sys.run_crossbar_system");
    c.crossbar = counted(sys::run_crossbar_system(c.schedule, platform));
  }
  {
    Scope span("sys.run_frames");
    c.pipelined = sys::run_designed_pipelined(
        c.schedule, c.exp.proposed_design, platform, c.frame_count);
  }
  {
    Scope span("sys.run_frames");
    c.baseline_frames =
        sys::run_baseline_frames(c.schedule, platform, c.frame_count);
  }
  return c;
}

void run_oracles(const dse::DesignCase& c, bool cycle,
                 std::vector<dse::OracleResult>& out) {
  for (const dse::Oracle& oracle : dse::oracle_library({}, false)) {
    if (!cycle && oracle.needs_cycle) {
      continue;
    }
    Scope span(oracle.name == "determinism" ? "dse.oracle_determinism"
                                            : "dse.oracles_other");
    out.push_back(oracle.check(c));
  }
}

// ---------------------------------------------------------------------------
// Sweeps: the job bodies of dse::run_campaign in analytic and cycle mode.

std::string hex16(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = kDigits[(h >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

struct Summary {
  std::string extra;  ///< Workload-specific JSON members ("k":v,...).
  std::string counters;  ///< Work counters, as the program prints them.
  double wall_seconds = 0.0;
  const char* root = "";  ///< Name prefix of the per-job root spans.
};

Summary run_sweep(const Args& args, bool cycle) {
  const auto start = hybench::now_ns();
  dse::CampaignOptions options;
  options.count = cycle ? kCycleDesigns : kAnalyticDesigns;
  options.campaign_seed = args.seed;
  options.threads = kThreads;
  options.tier = cycle ? tiers::TierMode::kCycle : tiers::TierMode::kAnalytic;

  Evaluator evaluator;
  apps::ProfileCache profiles;
  profiles.set_capacity(
      static_cast<std::size_t>(options.profile_cache_max_entries),
      options.profile_cache_max_bytes);
  std::shared_ptr<store::Store> disk;
  std::unique_ptr<store::Journal> journal;
  if (!cycle) {
    options.store_dir = args.out + "/store";
    options.journal_path = args.out + "/journal.log";
    Scope span("store.open");
    disk = std::make_shared<store::Store>(options.store_dir);
    profiles.set_l2(std::make_shared<TimedProfileL2>(
        std::make_shared<store::ProfileStoreL2>(disk)));
    evaluator.cache().set_l2(std::make_shared<TimedEstimateL2>(
        std::make_shared<store::EstimateStoreL2>(
            disk, store::estimate_scope(evaluator.inner().platform(),
                                        evaluator.inner().calibration()))));
    journal = std::make_unique<store::Journal>(options.journal_path);
  }
  const std::string fingerprint = dse::campaign_fingerprint(options);
  sys::BatchRunner runner{options.threads};
  const auto key_of = [&](std::uint64_t index) {
    return std::string(cycle ? "dse/" : "tier/") +
           std::to_string(options.campaign_seed) + "/" + std::to_string(index);
  };

  std::vector<sys::BatchRunner::Job<dse::CaseOutcome>> jobs;
  for (std::uint64_t index = 0; index < options.count; ++index) {
    jobs.push_back({key_of(index), [&, index](sys::JobContext&) {
                      RequestTag tag("design/" + std::to_string(index));
                      Scope job("dse.job");
                      dse::CaseOutcome outcome;
                      outcome.index = index;
                      outcome.config = dse::sample_config(
                          options.space, options.campaign_seed, index);
                      if (cycle) {
                        outcome.escalation =
                            tiers::EscalationReason::kRequested;
                        outcome.simulated = true;
                        const dse::DesignCase c =
                            design_case(outcome.config, profiles);
                        outcome.solution_tag =
                            c.exp.proposed_design.solution_tag();
                        outcome.baseline_seconds =
                            c.exp.baseline.total_seconds;
                        outcome.designed_seconds =
                            c.exp.proposed.total_seconds;
                        outcome.crossbar_seconds = c.crossbar.total_seconds;
                        outcome.pipelined_makespan_seconds =
                            c.pipelined.makespan_seconds;
                        run_oracles(c, true, outcome.oracles);
                        outcome.analytic = evaluator.estimate(
                            c.schedule, c.exp.proposed_design);
                        outcome.measured_designed_kernel_seconds =
                            c.exp.proposed.kernel_seconds();
                        outcome.band_violation =
                            !outcome.analytic->contains_designed(
                                outcome.measured_designed_kernel_seconds);
                      } else {
                        tiers::AnalyticCase analytic =
                            evaluator.analyze(outcome.config, profiles);
                        outcome.solution_tag = analytic.proposed.solution_tag();
                        outcome.analytic = analytic.estimate;
                        dse::DesignCase c;
                        c.config = outcome.config;
                        c.app = std::move(analytic.app);
                        c.schedule = std::move(analytic.schedule);
                        c.exp.proposed_design = std::move(analytic.proposed);
                        c.exp.noc_only_design = std::move(analytic.noc_only);
                        c.theta_seconds_per_byte =
                            analytic.theta_seconds_per_byte;
                        run_oracles(c, false, outcome.oracles);
                      }
                      return outcome;
                    }});
  }

  // run_case_batch's supervisor and checkpoint: each settled row is
  // journaled on its worker the moment it finishes.
  sys::SuperviseOptions supervise;
  supervise.job_timeout_seconds = options.job_timeout_seconds;
  supervise.transient_retries = options.transient_retries;
  supervise.backoff_initial_seconds = options.backoff_initial_seconds;
  supervise.is_transient = [](const std::exception& e) {
    return dynamic_cast<const store::StoreError*>(&e) != nullptr;
  };
  const auto on_settled =
      [&](std::size_t index,
          const sys::SupervisedResult<dse::CaseOutcome>& settled) {
        if (journal == nullptr || settled.status != sys::JobStatus::kOk) {
          return;
        }
        RequestTag tag("design/" + std::to_string(index));
        Scope root("dse.job_settled");
        std::string payload;
        {
          Scope span("dse.encode_outcome");
          payload = dse::encode_outcome(*settled.value);
        }
        Scope span("store.journal_append");
        journal->append(fingerprint, key_of(index), payload);
      };

  dse::CampaignResult result;
  for (const dse::Oracle& oracle : dse::oracle_library({}, false)) {
    result.oracle_names.push_back(oracle.name);
  }
  for (sys::SupervisedResult<dse::CaseOutcome>& settled :
       runner.run_supervised(std::move(jobs), supervise, on_settled)) {
    if (settled.status != sys::JobStatus::kOk) {
      throw ConfigError{"mirrored job did not settle ok: " + settled.error};
    }
    result.cases.push_back(std::move(*settled.value));
  }
  const sys::BatchReport report = runner.last_report();

  // The serial post-pass of dse::run_campaign that the CSV reads.
  std::set<std::string> seen_profiles;
  std::set<std::uint64_t> seen_keys;
  for (dse::CaseOutcome& outcome : result.cases) {
    outcome.profile_key = hex16(store::fnv1a64(
        apps::ProfileCache::synthetic_key(outcome.config)));
    outcome.profile_reused = !seen_profiles.insert(outcome.profile_key).second;
    if (outcome.analytic.has_value()) {
      outcome.congruent =
          !seen_keys.insert(outcome.analytic->congruence_key).second;
    }
  }
  std::ofstream(args.out + "/mirror.csv") << dse::campaign_csv(result);

  Summary summary;
  summary.wall_seconds =
      static_cast<double>(hybench::now_ns() - start) * 1e-9;
  summary.root = "dse.job";
  const apps::ProfileCacheStats pc = profiles.stats();
  // dse_campaign's stdout counter lines, field for field.
  std::ostringstream counters;
  counters << "profile_cache hits=" << pc.hits << " misses=" << pc.misses
           << " l2_hits=" << pc.l2_hits << " l2_stores=" << pc.l2_stores
           << " evictions=" << pc.evictions
           << " resident_entries=" << pc.entries
           << " resident_bytes=" << pc.resident_bytes << "\n"
           << "estimate_l2 hits=" << evaluator.cache().l2_hits()
           << " stores=" << evaluator.cache().l2_stores() << "\n";
  if (disk != nullptr) {
    const store::StoreStats ss = disk->stats();
    counters << "store puts=" << ss.puts << " hits=" << ss.hits
             << " misses=" << ss.misses << " corrupt=" << ss.corrupt_entries
             << "\n";
  }
  summary.counters = counters.str();
  std::ostringstream extra;
  extra << "\"designs\":" << result.cases.size()
        << ",\"batch_threads\":" << report.thread_count
        << ",\"batch_wall_s\":" << json_number(report.wall_seconds)
        << ",\"batch_job_s\":" << json_number(report.total_job_seconds())
        << ",\"profile_cache_hits\":" << pc.hits
        << ",\"profile_cache_misses\":" << pc.misses
        << ",\"profile_cache_resident_bytes\":" << pc.resident_bytes
        << ",\"congruence_hits\":" << evaluator.cache().hits()
        << ",\"congruence_misses\":" << evaluator.cache().misses()
        << ",\"trace_events\":" << g_trace_events.load()
        << ",\"store_corrupt\":"
        << (disk != nullptr ? disk->stats().corrupt_entries : 0);
  summary.extra = extra.str();
  return summary;
}

// ---------------------------------------------------------------------------
// Serve: the request stream both the client and the mirror replay.

struct ServeRequest {
  std::string id;
  std::string kind;  ///< warm | hit | miss | search
  apps::SyntheticConfig config;
};

/// The serve shapes are the same for every seed: the warm-up pool is the
/// first `kServePool` shapes of the default campaign (seed 1), and the
/// misses are the shapes that follow them.
constexpr std::uint64_t kPoolSeed = 1;

/// Fisher-Yates with the repository's xoshiro stream.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// `kServePool` warm-up shapes, then 20 x `kServePool` measured requests:
/// 60% design on pool shapes (each shape 12 times), 25% design on new
/// shapes (indices past the pool, so never a pool shape) and 15% search on
/// pool shapes (each shape 3 times). Exact counts, equal shares per pool
/// shape and the same new shapes keep the work the same from seed to seed.
/// The stream is three segments, each with a third of every pool shape's
/// requests and of the new shapes, so whether a shape is served early
/// (small profile cache) or late does not change with the seed either; the
/// seed shuffles the order within each segment.
std::vector<ServeRequest> serve_stream(std::uint64_t seed) {
  constexpr std::uint64_t pool = kServePool;
  constexpr std::uint64_t segments = 3;
  constexpr std::uint64_t misses = 5 * pool;
  const dse::SweepSpace space;
  std::vector<ServeRequest> stream;
  for (std::uint64_t i = 0; i < pool; ++i) {
    stream.push_back({"w" + std::to_string(i), "warm",
                      dse::sample_config(space, kPoolSeed, i)});
  }
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x5E7E};
  std::uint64_t next_shape = pool;
  for (std::uint64_t s = 0; s < segments; ++s) {
    std::vector<ServeRequest> segment;
    for (std::uint64_t i = 0; i < pool; ++i) {
      for (int hit = 0; hit < 4; ++hit) {
        segment.push_back({"", "hit", stream[i].config});
      }
      segment.push_back({"", "search", stream[i].config});
    }
    for (; next_shape < pool + misses * (s + 1) / segments; ++next_shape) {
      segment.push_back(
          {"", "miss", dse::sample_config(space, kPoolSeed, next_shape)});
    }
    shuffle(segment, rng);
    for (ServeRequest& request : segment) {
      request.id = "m" + std::to_string(stream.size() - pool);
      stream.push_back(std::move(request));
    }
  }
  return stream;
}

std::string request_line(const ServeRequest& request) {
  const apps::SyntheticConfig& c = request.config;
  return JsonObject{}
      .str("id", request.id)
      .str("op", request.kind == "search" ? "search" : "design")
      .raw("seed", std::to_string(c.seed))
      .raw("kernels", std::to_string(c.kernel_count))
      .num("edge_p", c.kernel_edge_probability)
      .num("dup_p", c.duplicable_probability)
      .num("stream_p", c.streaming_probability)
      .raw("min_edge_bytes", std::to_string(c.min_edge_bytes))
      .raw("max_edge_bytes", std::to_string(c.max_edge_bytes))
      .raw("min_work", std::to_string(c.min_work_units))
      .raw("max_work", std::to_string(c.max_work_units))
      .done();
}

Summary run_serve(const Args& args) {
  const auto start = hybench::now_ns();
  Evaluator evaluator;
  apps::ProfileCache profiles;
  std::ofstream replies(args.out + "/replies.jsonl");
  search::SearchStats totals;
  for (const ServeRequest& request : serve_stream(args.seed)) {
    RequestTag tag(request.id);
    Scope root("serve.request");
    JsonObject reply;
    reply.str("id", request.id).raw("ok", "true").str("tier", "analytic");
    tiers::AnalyticCase analytic = evaluator.analyze(request.config, profiles);
    if (request.kind != "search") {
      reply.str("solution", analytic.proposed.solution_tag())
          .num("analytic_baseline_s", analytic.estimate.baseline_kernel_seconds)
          .num("analytic_designed_s", analytic.estimate.designed_kernel_seconds)
          .num("analytic_lo_s", analytic.estimate.designed_lower_seconds)
          .num("analytic_hi_s", analytic.estimate.designed_upper_seconds);
    } else {
      const core::DesignInput input =
          design_input(analytic.schedule, evaluator.inner().platform());
      // hybridic_serve's request defaults: 2 restarts of 60 iterations.
      search::AnnealOptions options;
      options.seed = request.config.seed;
      options.restarts = 2;
      options.iterations = 60;
      options.calibration = evaluator.inner().calibration();
      search::SearchResult result;
      {
        Scope span("search.anneal");
        result = search::anneal_interconnect(
            analytic.schedule, input, evaluator.inner().platform(), options);
      }
      totals.proposed += result.stats.proposed;
      totals.accepted += result.stats.accepted;
      totals.rejected_illegal += result.stats.rejected_illegal;
      totals.cache_hits += result.stats.cache_hits;
      const search::SearchRecord record = result.record();
      reply.str("solution", record.solution_tag)
          .num("searched_analytic_s", record.analytic_seconds)
          .num("alg1_analytic_s", record.algorithm1_analytic_seconds)
          .raw("searched_luts", std::to_string(record.luts))
          .raw("alg1_luts", std::to_string(record.algorithm1_luts))
          .num("gain", record.gain)
          .raw("best_restart", std::to_string(record.best_restart))
          .raw("proposed", std::to_string(record.proposed))
          .raw("accepted", std::to_string(record.accepted))
          .raw("rejected_illegal", std::to_string(record.rejected_illegal))
          .raw("cache_hits", std::to_string(record.cache_hits));
    }
    replies << reply.done() << "\n";
  }

  Summary summary;
  summary.wall_seconds =
      static_cast<double>(hybench::now_ns() - start) * 1e-9;
  summary.root = "serve.request";
  const apps::ProfileCacheStats pc = profiles.stats();
  std::ostringstream extra;
  extra << "\"profile_cache_hits\":" << pc.hits
        << ",\"profile_cache_misses\":" << pc.misses
        << ",\"profile_cache_resident_bytes\":" << pc.resident_bytes
        << ",\"congruence_hits\":" << evaluator.cache().hits()
        << ",\"congruence_misses\":" << evaluator.cache().misses()
        << ",\"search_proposed\":" << totals.proposed
        << ",\"search_accepted\":" << totals.accepted
        << ",\"search_rejected_illegal\":" << totals.rejected_illegal
        << ",\"search_cache_hits\":" << totals.cache_hits;
  summary.extra = extra.str();
  return summary;
}

// ---------------------------------------------------------------------------
// Paper apps: report_all --threads 1 (bench::run_all_experiments, then the
// per-app design sections), one app after another on one worker.

Summary run_paper(const Args& args) {
  const auto start = hybench::now_ns();
  apps::ProfileCache profiles;
  sys::BatchRunner runner{1};
  const std::vector<std::string> names = apps::paper_app_names();

  std::vector<sys::BatchRunner::Job<sys::AppExperiment>> jobs;
  for (const std::string& name : names) {
    jobs.push_back({"experiment/" + name, [&profiles,
                                           name](sys::JobContext&) {
                      RequestTag tag(name);
                      Scope root("paper.experiment");
                      std::shared_ptr<const apps::ProfiledApp> app;
                      {
                        Scope span("apps.profile_cache");
                        app = profiles.get(
                            apps::ProfileCache::paper_key(name), [&name] {
                              Scope inner("apps.paper_profile");
                              return apps::run_paper_app(name);
                            });
                      }
                      if (!app->verified) {
                        throw ConfigError{"self-verification failed: " + name};
                      }
                      sys::AppSchedule schedule;
                      {
                        Scope span("apps.schedule");
                        schedule = app->schedule();
                      }
                      return experiment(schedule, sys::PlatformConfig{},
                                            app->environment);
                    }});
  }
  const std::vector<sys::AppExperiment> experiments =
      runner.run(std::move(jobs));
  double job_seconds = runner.last_report().total_job_seconds();
  double batch_wall = runner.last_report().wall_seconds;

  std::vector<sys::BatchRunner::Job<int>> sections;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string name = names[i];
    const sys::AppExperiment& exp = experiments[i];
    sections.push_back({"report-section/" + name, [&, name](sys::JobContext&) {
                          RequestTag tag(name);
                          Scope root("paper.section");
                          const std::shared_ptr<const apps::ProfiledApp> app =
                              profiles.paper_app(name);
                          std::ostringstream section;
                          {
                            Scope span("core.describe");
                            section << exp.proposed_design.describe(
                                app->graph());
                            section << sys::render_timeline(exp.proposed);
                          }
                          sys::AppSchedule schedule;
                          {
                            Scope span("apps.schedule");
                            schedule = app->schedule();
                          }
                          {
                            Scope span("core.validate_design");
                            section << core::format_issues(
                                core::validate_design(exp.proposed_design,
                                                      schedule.specs));
                          }
                          {
                            Scope span("sys.run_frames");
                            section << sys::run_designed_pipelined(
                                           schedule, exp.proposed_design,
                                           sys::PlatformConfig{}, 64)
                                           .throughput_fps();
                          }
                          Scope span("core.to_json");
                          std::ofstream(args.out + "/" + name + "_design.json")
                              << core::to_json(exp.proposed_design,
                                               schedule.specs);
                          return 0;
                        }});
  }
  (void)runner.run(std::move(sections));
  job_seconds += runner.last_report().total_job_seconds();
  batch_wall += runner.last_report().wall_seconds;
  // report_all's [batch] line without its two timings.
  std::ostringstream counters;
  counters << "[batch] threads=" << runner.last_report().thread_count
           << " jobs=" << runner.last_report().jobs.size()
           << " steals=" << runner.last_report().steals
           << " profile-cache hits=" << profiles.hits() << "/"
           << (profiles.hits() + profiles.misses())
           << " convoy-waits=" << profiles.convoy_waits() << "\n";

  // The Table III and Table IV rows exactly as report_all renders them.
  std::ofstream rows(args.out + "/tables.md");
  std::ostringstream totals;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const sys::AppExperiment& exp = experiments[i];
    const bench::PaperReference& ref = bench::paper_reference().at(name);
    rows << "| " << name << " | "
         << format_ratio(exp.proposed_app_speedup_vs_sw()) << " ("
         << format_ratio(ref.proposed_app_vs_sw) << ") | "
         << format_ratio(exp.proposed_kernel_speedup_vs_sw()) << " ("
         << format_ratio(ref.proposed_kernel_vs_sw) << ") | "
         << format_ratio(exp.proposed_app_speedup_vs_baseline()) << " ("
         << format_ratio(ref.proposed_app_vs_baseline) << ") | "
         << format_ratio(exp.proposed_kernel_speedup_vs_baseline()) << " ("
         << format_ratio(ref.proposed_kernel_vs_baseline) << ") |\n";
    const auto fmt = [](const core::Resources& r) {
      return std::to_string(r.luts) + "/" + std::to_string(r.regs);
    };
    rows << "| " << name << " | " << fmt(exp.baseline_resources) << " | "
         << fmt(exp.proposed_resources) << " | "
         << fmt(exp.noc_only_resources) << " | "
         << exp.proposed_design.solution_tag() << " |\n";
    totals << (i == 0 ? "" : ",") << "\"" << name << "\":"
           << JsonObject{}
                  .num("sw_s", exp.sw.total_seconds)
                  .num("baseline_s", exp.baseline.total_seconds)
                  .num("proposed_s", exp.proposed.total_seconds)
                  .num("noc_only_s", exp.noc_only.total_seconds)
                  .raw("proposed_luts",
                       std::to_string(exp.proposed_resources.luts))
                  .num("proposed_energy_j", exp.proposed_energy_joules)
                  .str("solution", exp.proposed_design.solution_tag())
                  .done();
  }

  Summary summary;
  summary.wall_seconds =
      static_cast<double>(hybench::now_ns() - start) * 1e-9;
  summary.root = "paper.";
  summary.counters = counters.str();
  std::ostringstream extra;
  extra << "\"batch_threads\":1,\"batch_wall_s\":" << json_number(batch_wall)
        << ",\"batch_job_s\":" << json_number(job_seconds)
        << ",\"trace_events\":" << g_trace_events.load()
        << ",\"experiments\":{" << totals.str() << "}";
  summary.extra = extra.str();
  return summary;
}

// ---------------------------------------------------------------------------

/// layers.json: per-span-name aggregates, per-request durations of the
/// root spans, the layer coverage, and the workload's own counters.
void write_summary(const Args& args, const Summary& summary) {
  const std::vector<hybench::Span> spans =
      hybench::Recorder::instance().collect();
  std::ofstream(args.out + "/counters.txt") << summary.counters;
  {
    std::ofstream trace(args.out + "/trace.json");
    hybench::write_chrome_trace(spans, trace);
  }
  const std::string root = summary.root;
  const auto is_root = [&root](const hybench::Span& span) {
    return span.parent == 0 && std::string(span.name).rfind(root, 0) == 0;
  };
  double root_total = 0.0;
  double root_self = 0.0;
  std::map<std::uint64_t, double> self = hybench::self_seconds_by_id(spans);
  std::map<std::string, double> request_seconds;
  std::map<std::string, double> paper_profile;  ///< By app name.
  for (const hybench::Span& span : spans) {
    if (is_root(span)) {
      root_total += hybench::seconds(span);
      root_self += self[span.id];
      request_seconds[span.request] += hybench::seconds(span);
    }
    if (std::string(span.name) == "apps.paper_profile") {
      paper_profile[span.request] += hybench::seconds(span);
    }
  }

  std::ofstream out(args.out + "/layers.json");
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"wall_s\":" << json_number(summary.wall_seconds)
      << ",\"coverage\":"
      << json_number(root_total > 0.0 ? 1.0 - root_self / root_total : 0.0)
      << "," << summary.extra << ",\"paper_profile_s\":{";
  bool first = true;
  for (const auto& [name, seconds] : paper_profile) {
    out << (first ? "" : ",") << "\"" << name << "\":" << json_number(seconds);
    first = false;
  }
  out << "},\"requests\":{";
  first = true;
  for (const auto& [request, seconds] : request_seconds) {
    out << (first ? "" : ",") << "\"" << request
        << "\":" << json_number(seconds);
    first = false;
  }
  out << "},\"spans\":{";
  first = true;
  for (const auto& [name, stats] : hybench::summarize(spans)) {
    out << (first ? "" : ",") << "\"" << name << "\":"
        << JsonObject{}
               .raw("calls", std::to_string(stats.calls))
               .num("self_s", stats.self_seconds)
               .num("total_s", stats.total_seconds)
               .num("p50_s", stats.percentile(0.50))
               .num("p90_s", stats.percentile(0.90))
               .done();
    first = false;
  }
  out << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.emit_requests.empty()) {
    std::ofstream out(args.emit_requests);
    for (const ServeRequest& request : serve_stream(args.seed)) {
      out << request.kind << "\t" << request_line(request) << "\n";
    }
    return out ? 0 : 1;
  }
  if (args.out.empty()) {
    usage("--out is required");
  }
  std::filesystem::create_directories(args.out);
  Summary summary;
  try {
    if (args.workload == "sweep-analytic" || args.workload == "sweep-cycle") {
      summary = run_sweep(args, args.workload == "sweep-cycle");
    } else if (args.workload == "serve-mix") {
      summary = run_serve(args);
    } else if (args.workload == "paper-apps") {
      summary = run_paper(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "hybench_mirror: " << e.what() << "\n";
    return 1;
  }
  write_summary(args, summary);
  return 0;
}
