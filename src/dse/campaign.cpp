#include "dse/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "dse/case_runner.hpp"
#include "dse/outcome_codec.hpp"
#include "dse/shrinker.hpp"
#include "store/adapters.hpp"
#include "store/codec.hpp"
#include "store/journal.hpp"
#include "sys/batch_runner.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/text.hpp"

namespace hybridic::dse {
namespace {

using util::decimal17;
using util::hex16;

/// The CSV congruence_key column: lower-case hex without padding.
std::string hex_key(std::uint64_t key) {
  std::ostringstream out;
  out << std::hex << key;
  return out.str();
}

/// 16-hex content hash of a row's profile identity: the exact string the
/// profile cache (and the L2 store, revision aside) keys the config by.
std::string profile_key_of(const apps::SyntheticConfig& config) {
  return hex16(store::fnv1a64(apps::ProfileCache::synthetic_key(config)));
}

/// CSV-safe rendering of a free-form message (no commas, no newlines).
std::string csv_safe(std::string text) {
  for (char& ch : text) {
    if (ch == ',' || ch == '\n' || ch == '\r') {
      ch = ';';
    }
  }
  return text;
}

/// The simulation-free oracles' verdicts on `c`, in library order; the
/// board oracle joins when the case carries a multi-board design.
std::vector<OracleResult> sim_free_verdicts(const DesignCase& c,
                                            const OracleBounds& bounds) {
  std::vector<OracleResult> verdicts;
  for (const Oracle& oracle :
       oracle_library(bounds, c.multi_design != nullptr)) {
    if (!oracle.needs_cycle) {
      verdicts.push_back(oracle.check(c));
    }
  }
  return verdicts;
}

/// A case without simulated runs: profile, schedule and one design — all
/// the sim-free oracles read. The graph pointer stays valid across the
/// moves (the profiler that owns it is held by the shared ProfiledApp).
DesignCase sim_free_case(const apps::SyntheticConfig& config,
                         std::shared_ptr<const apps::ProfiledApp> app,
                         sys::AppSchedule schedule,
                         core::DesignResult proposed, double theta) {
  DesignCase c;
  c.config = config;
  c.app = std::move(app);
  c.schedule = std::move(schedule);
  c.exp.proposed_design = std::move(proposed);
  c.theta_seconds_per_byte = theta;
  return c;
}

/// Run the annealed search for one settled case and attach its record.
/// The hard-constraint gate is the validator plus the simulation-free
/// oracle subset, evaluated on a candidate case that substitutes the
/// searched design for Algorithm 1's (the noc_only slot stays empty —
/// an instance-free design that validates clean). Single-board scope:
/// the searched design replaces the board-local Algorithm 1 run, so the
/// gate never needs the board-conservation oracle. Restarts run serially
/// (threads = 1) — the campaign already parallelizes across cases — and
/// the annealer seed is the case's own config seed, so the record
/// depends only on (config, search options), never on thread count.
void attach_search(CaseOutcome& outcome, const DesignCase& c,
                   const CampaignOptions& options) {
  search::AnnealOptions anneal;
  anneal.seed = outcome.config.seed;
  anneal.restarts = options.search_restarts;
  anneal.iterations = options.search_iterations;
  anneal.threads = 1;
  anneal.gate = [&options, &c](const sys::AppSchedule& schedule,
                               const core::DesignResult& design)
      -> std::optional<std::string> {
    if (std::optional<std::string> invalid =
            search::default_gate(schedule, design)) {
      return invalid;
    }
    for (const OracleResult& verdict : sim_free_verdicts(
             sim_free_case(c.config, c.app, schedule, design,
                           c.theta_seconds_per_byte),
             options.bounds)) {
      if (!verdict.pass) {
        return verdict.oracle + ": " + verdict.message;
      }
    }
    return std::nullopt;
  };
  const sys::PlatformConfig platform;
  const core::DesignInput input = sys::make_design_input(c.schedule, platform);
  outcome.searched =
      search::anneal_interconnect(c.schedule, input, platform, anneal)
          .record();
}

/// A row's identity: its index and the config sampled for it.
CaseOutcome new_row(std::uint64_t index, const CampaignOptions& options) {
  CaseOutcome outcome;
  outcome.index = index;
  outcome.config = sample_config(options.space, options.campaign_seed, index);
  return outcome;
}

/// The job and journal key of a row. Cycle rows share one key whether
/// cycle mode or an auto-mode escalation asked for them: escalated rows
/// replay the identical RNG stream, so their CSV rows match a pure
/// --tier=cycle campaign byte for byte.
std::string job_key(std::uint64_t campaign_seed, std::uint64_t index,
                    tiers::EscalationReason reason) {
  return (reason == tiers::EscalationReason::kNone ? "tier/" : "dse/") +
         std::to_string(campaign_seed) + "/" + std::to_string(index);
}

/// Everything a job body touches, heap-held behind one shared_ptr: a
/// watchdog-abandoned attempt may outlive run_campaign's frame, so job
/// closures capture this by value and never reference the stack.
struct CampaignState {
  CampaignOptions options;
  tiers::TieredEvaluator evaluator;
  apps::ProfileCache profile_cache;
  std::shared_ptr<store::Store> disk;
};

/// The job body of every tier. Escalation reason kNone is the analytic
/// tier: profile + Algorithm 1 + estimate + the sim-free oracles, never an
/// event queue. Any other reason is one full cycle-accurate evaluation
/// (all five variants, every oracle) plus the tier record: the analytic
/// estimate comes from the case's own schedule and design — no second
/// profiling run — so every simulated row carries a band check.
CaseOutcome run_case(std::uint64_t index, CampaignState& s,
                     tiers::EscalationReason reason) {
  const CampaignOptions& options = s.options;
  CaseOutcome outcome = new_row(index, options);
  outcome.escalation = reason;
  // The cycle engine owns an escalated row even on error, so auto rows
  // mirror cycle rows.
  outcome.simulated = reason != tiers::EscalationReason::kNone;
  try {
    if (options.job_started_hook) {
      options.job_started_hook(index);
    }
    DesignCase c;
    if (outcome.simulated) {
      c = run_design_case(outcome.config, &s.profile_cache);
      outcome.solution_tag = c.exp.proposed_design.solution_tag();
      outcome.baseline_seconds = c.exp.baseline.total_seconds;
      outcome.designed_seconds = c.exp.proposed.total_seconds;
      outcome.crossbar_seconds = c.crossbar.total_seconds;
      outcome.pipelined_makespan_seconds = c.pipelined.makespan_seconds;
      outcome.oracles = run_all_oracles(c, options.bounds);
      if (c.multi_run != nullptr) {
        outcome.multi_total_seconds = c.multi_run->run.total_seconds;
        outcome.inter_board_bytes = c.multi_run->inter_board_bytes;
        outcome.board_link_reroutes = c.multi_run->board_link_reroutes;
      }
      if (c.multi_design != nullptr) {
        outcome.cut_bytes = c.multi_design->partition.cut_bytes.count();
      }
      outcome.analytic =
          s.evaluator.estimate(c.schedule, c.exp.proposed_design);
      outcome.measured_designed_kernel_seconds =
          c.exp.proposed.kernel_seconds();
      outcome.band_violation = !outcome.analytic->contains_designed(
          outcome.measured_designed_kernel_seconds);
    } else {
      tiers::AnalyticCase analytic =
          s.evaluator.analyze(outcome.config, &s.profile_cache);
      outcome.solution_tag = analytic.proposed.solution_tag();
      outcome.analytic = analytic.estimate;
      c = sim_free_case(outcome.config, std::move(analytic.app),
                        std::move(analytic.schedule),
                        std::move(analytic.proposed),
                        analytic.theta_seconds_per_byte);
      c.exp.noc_only_design = std::move(analytic.noc_only);
      if (outcome.config.board_count > 1) {
        // The two-level partition + per-board designs are sim-free, so the
        // analytic tier can run the board-conservation oracle too.
        core::MultiBoardDesignInput input;
        input.base =
            sys::make_design_input(c.schedule, sys::PlatformConfig{});
        input.board_count = outcome.config.board_count;
        c.multi_design = std::make_shared<const core::MultiBoardDesign>(
            core::design_multi_board(input));
        outcome.cut_bytes = c.multi_design->partition.cut_bytes.count();
      }
      outcome.oracles = sim_free_verdicts(c, options.bounds);
    }
    if (options.search) {
      attach_search(outcome, c, options);
    }
  } catch (const store::StoreError&) {
    // Transient by classification (a flaky filesystem, not a property of
    // the design): propagate so the supervisor can retry with backoff.
    throw;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

/// Serial post-pass: congruent/profile_reused flags + tier stats, in index
/// order.
void finalize_tier_record(CampaignResult& result,
                          const CampaignOptions& options) {
  TierStats& stats = result.tier_stats;
  stats.mode = options.tier;
  std::set<std::string> seen_profiles;
  for (CaseOutcome& outcome : result.cases) {
    outcome.profile_key = profile_key_of(outcome.config);
    outcome.profile_reused = !seen_profiles.insert(outcome.profile_key).second;
    stats.reused_profiles += outcome.profile_reused ? 1 : 0;
    stats.cycle_evals += outcome.simulated ? 1 : 0;
    stats.escalated_rank +=
        outcome.escalation == tiers::EscalationReason::kRankOverlap ? 1 : 0;
    stats.escalated_oracle +=
        outcome.escalation == tiers::EscalationReason::kOracle ? 1 : 0;
  }
  stats.distinct_profiles = seen_profiles.size();
  std::set<std::uint64_t> seen_keys;
  for (CaseOutcome& outcome : result.cases) {
    if (!outcome.analytic.has_value()) {
      continue;
    }
    ++stats.analytic_evals;
    outcome.congruent =
        !seen_keys.insert(outcome.analytic->congruence_key).second;
    if (outcome.congruent) {
      ++stats.congruent_designs;
    }
    if (outcome.simulated) {
      ++stats.band_checks;
      if (outcome.band_violation) {
        ++stats.band_violations;
      }
      const double measured = outcome.measured_designed_kernel_seconds;
      const double mid = outcome.analytic->designed_kernel_seconds;
      if (mid > 0.0) {
        stats.worst_measured_over_analytic =
            std::max(stats.worst_measured_over_analytic, measured / mid);
      }
      if (measured > 0.0) {
        stats.worst_analytic_over_measured =
            std::max(stats.worst_analytic_over_measured, mid / measured);
      }
    }
  }
  stats.distinct_signatures = seen_keys.size();
}

/// The row of a settled job. A job without a verdict of its own gets a
/// deterministic row: config fields only, a stable note (no measured
/// times), no verdicts — so a wedged-then-resumed campaign and an
/// uninterrupted one print the identical row. A poison job (watchdog
/// expired, or crashed past its retries) is quarantined; a job a drain
/// stopped before it started is skipped.
CaseOutcome settled_row(std::uint64_t index, const CampaignOptions& options,
                        sys::SupervisedResult<CaseOutcome> settled) {
  if (settled.status == sys::JobStatus::kOk) {
    return std::move(*settled.value);
  }
  CaseOutcome outcome = new_row(index, options);
  outcome.skipped = settled.status == sys::JobStatus::kSkipped;
  outcome.quarantined = !outcome.skipped;
  outcome.error = outcome.skipped ? "skipped: interrupted before start"
                                  : "quarantined: " + settled.error;
  return outcome;
}

/// One supervised batch: row `indices[i]` runs at escalation `reasons[i]`.
/// Restored rows come straight from the journal replay, live rows run
/// under the watchdog/retry/stop-gate supervisor, and every settled row
/// (ok or quarantined) is journaled the moment it finishes — a SIGKILL
/// loses at most the in-flight jobs.
std::vector<CaseOutcome> run_case_batch(
    sys::BatchRunner& runner, const std::shared_ptr<CampaignState>& state,
    const std::vector<std::uint64_t>& indices,
    const std::vector<tiers::EscalationReason>& reasons,
    const std::map<std::string, CaseOutcome>& restored,
    store::Journal* journal, const std::string& fingerprint,
    CampaignResult& result) {
  const CampaignOptions& options = state->options;
  std::vector<std::string> keys;
  std::vector<CaseOutcome> outcomes(indices.size());
  std::vector<std::size_t> live;  ///< Slots of the rows that must run.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    keys.push_back(job_key(options.campaign_seed, indices[i], reasons[i]));
    const auto it = restored.find(keys.back());
    if (it == restored.end()) {
      live.push_back(i);
      continue;
    }
    outcomes[i] = it->second;
    outcomes[i].resumed = true;
    ++result.resumed_count;
    if (outcomes[i].quarantined) {
      ++result.quarantined_count;
    }
  }
  if (live.empty()) {
    return outcomes;
  }

  sys::SuperviseOptions supervise;
  supervise.job_timeout_seconds = options.job_timeout_seconds;
  supervise.transient_retries = options.transient_retries;
  supervise.backoff_initial_seconds = options.backoff_initial_seconds;
  supervise.is_transient = [](const std::exception& e) {
    return dynamic_cast<const store::StoreError*>(&e) != nullptr;
  };
  supervise.stop_requested = options.stop_requested;

  std::vector<sys::BatchRunner::Job<CaseOutcome>> jobs;
  jobs.reserve(live.size());
  for (const std::size_t i : live) {
    // Value captures only: an abandoned attempt thread keeps its own
    // shared_ptr to the campaign state.
    jobs.push_back({keys[i], [state, index = indices[i],
                              reason = reasons[i]](sys::JobContext&) {
                      return run_case(index, *state, reason);
                    }});
  }

  const auto on_settled = [&](std::size_t slot,
                              const sys::SupervisedResult<CaseOutcome>& r) {
    if (journal == nullptr || r.status == sys::JobStatus::kSkipped) {
      return;  // Skipped jobs are NOT journaled: a resume re-runs them.
    }
    const std::size_t i = live[slot];
    journal->append(fingerprint, keys[i],
                    encode_outcome(settled_row(indices[i], options, r)));
  };

  std::vector<sys::SupervisedResult<CaseOutcome>> slots =
      runner.run_supervised(std::move(jobs), supervise, on_settled);
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    const std::size_t i = live[slot];
    outcomes[i] = settled_row(indices[i], options, std::move(slots[slot]));
    if (outcomes[i].quarantined) {
      ++result.quarantined_count;
    }
    if (outcomes[i].skipped) {
      ++result.skipped_count;
      result.interrupted = true;
    }
  }
  return outcomes;
}

}  // namespace

std::string campaign_fingerprint(const CampaignOptions& options) {
  using util::hexf;
  const SweepSpace& space = options.space;
  const OracleBounds& bounds = options.bounds;
  std::ostringstream s;
  s << "campaign-fp 1"
    << "|rev " << store::kEngineRevision
    << "|tier " << tiers::to_string(options.tier)
    << "|seed " << options.campaign_seed
    << "|count " << options.count
    << "|shard " << options.shard_index << '/' << options.shard_count
    << "|kernels " << space.min_kernels << ' ' << space.max_kernels
    << "|edgep " << hexf(space.min_edge_probability) << ' '
    << hexf(space.max_edge_probability)
    << "|bytes " << space.min_edge_bytes_floor << ' '
    << space.max_edge_bytes_ceiling
    << "|work " << space.min_work_units_floor << ' '
    << space.max_work_units_ceiling
    << "|boards " << space.min_boards << ' ' << space.max_boards
    << "|topologies";
  for (const std::string& topology : space.board_topologies) {
    s << ' ' << topology;
  }
  s << "|bounds " << hexf(bounds.baseline_perf_band) << ' '
    << hexf(bounds.proposed_perf_band) << ' ' << hexf(bounds.speedup_slack)
    << ' ' << hexf(bounds.pipeline_slack)
    << "|watchdog " << hexf(options.job_timeout_seconds);
  // Appended only when search is on, so every pre-search campaign keeps
  // the fingerprint (and therefore the journal validity) it always had.
  if (options.search) {
    s << "|search anneal r" << options.search_restarts << " i"
      << options.search_iterations;
  }
  return hex16(store::fnv1a64(s.str()));
}

apps::SyntheticConfig sample_config(const SweepSpace& space,
                                    std::uint64_t campaign_seed,
                                    std::uint64_t index) {
  // One private stream per (campaign, index); splitmix seeding decorrelates
  // neighbouring indices.
  Rng rng{campaign_seed * util::kGoldenGamma + index + 1};

  apps::SyntheticConfig config;
  config.kernel_count = static_cast<std::uint32_t>(
      rng.between(space.min_kernels, space.max_kernels));
  config.kernel_edge_probability =
      space.min_edge_probability +
      rng.uniform() * (space.max_edge_probability -
                       space.min_edge_probability);
  const std::uint64_t bytes_a = rng.between(space.min_edge_bytes_floor,
                                            space.max_edge_bytes_ceiling);
  const std::uint64_t bytes_b = rng.between(space.min_edge_bytes_floor,
                                            space.max_edge_bytes_ceiling);
  config.min_edge_bytes = std::min(bytes_a, bytes_b);
  config.max_edge_bytes = std::max(bytes_a, bytes_b);
  const std::uint64_t work_a = rng.between(space.min_work_units_floor,
                                           space.max_work_units_ceiling);
  const std::uint64_t work_b = rng.between(space.min_work_units_floor,
                                           space.max_work_units_ceiling);
  config.min_work_units = std::min(work_a, work_b);
  config.max_work_units = std::max(work_a, work_b);
  config.duplicable_probability = rng.uniform();
  config.streaming_probability = rng.uniform();
  config.seed = rng.next();

  // Board draws come strictly AFTER every existing field and only when
  // the space actually sweeps boards: a single-board campaign consumes
  // the identical RNG stream it always did, so its configs (and
  // therefore its CSV) replay byte for byte.
  if (space.multi_board()) {
    config.board_count = static_cast<std::uint32_t>(
        rng.between(std::max<std::uint32_t>(1, space.min_boards),
                    space.max_boards));
    const auto& topologies = space.board_topologies;
    if (!topologies.empty()) {
      config.board_topology = topologies[static_cast<std::size_t>(
          rng.between(0, static_cast<std::uint64_t>(topologies.size()) - 1))];
    }
  }
  return config;
}

bool CaseOutcome::all_pass() const {
  if (!ran()) {
    return false;
  }
  return std::all_of(oracles.begin(), oracles.end(),
                     [](const OracleResult& r) { return r.pass; });
}

std::uint64_t CampaignResult::verdict_count(const std::string& oracle,
                                            bool pass) const {
  std::uint64_t n = 0;
  for (const CaseOutcome& c : cases) {
    for (const OracleResult& r : c.oracles) {
      if (r.oracle == oracle && r.pass == pass) {
        ++n;
      }
    }
  }
  return n;
}

std::uint64_t CampaignResult::error_count() const {
  std::uint64_t n = 0;
  for (const CaseOutcome& c : cases) {
    if (!c.ran()) {
      ++n;
    }
  }
  return n;
}

std::optional<std::string> options_error(const CampaignOptions& options) {
  if (options.shard_index >= options.shard_count) {
    return "--shard " + std::to_string(options.shard_index) + "/" +
           std::to_string(options.shard_count) + ": need 0 <= I < N";
  }
  // Auto-tier escalation ranks every estimate against every other. A
  // shard only holds its own, so the selection (and thus the merged CSV)
  // would differ from an unsharded run; a journal keys one ledger record
  // per job, so a partial ledger could not reproduce it either.
  if (options.tier == tiers::TierMode::kAuto) {
    if (options.shard_count > 1) {
      return "--shard requires --tier=analytic or --tier=cycle: auto-mode "
             "escalation selection is global";
    }
    if (!options.journal_path.empty()) {
      return "--journal requires --tier=analytic or --tier=cycle: "
             "auto-mode escalation selection is global";
    }
  }
  if (options.resume && options.journal_path.empty()) {
    return "--resume requires --journal";
  }
  return std::nullopt;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  if (const std::optional<std::string> error = options_error(options)) {
    throw ConfigError{*error};
  }

  CampaignResult result;
  result.multi_board = options.space.multi_board();
  result.searched = options.search;
  for (const Oracle& oracle :
       oracle_library(options.bounds, result.multi_board)) {
    result.oracle_names.push_back(oracle.name);
  }

  // This shard's slice of the sweep, with global indices preserved so the
  // merged CSV is indistinguishable from an unsharded run.
  std::vector<std::uint64_t> owned;
  owned.reserve(static_cast<std::size_t>(
      options.count / options.shard_count + 1));
  for (std::uint64_t index = options.shard_index; index < options.count;
       index += options.shard_count) {
    owned.push_back(index);
  }

  // One evaluator for the whole campaign: one theta, one congruence
  // cache. estimate() is thread-safe and pure, so sharing it across jobs
  // never breaks the determinism contract. The profile cache memoizes
  // QUAD runs across design points; with a store attached both caches
  // gain a persistent L2 tier shared across processes and shards. All of
  // it lives behind one shared_ptr (CampaignState) so watchdog-abandoned
  // attempts never dangle into this frame.
  auto state = std::make_shared<CampaignState>();
  state->options = options;
  state->profile_cache.set_capacity(
      static_cast<std::size_t>(options.profile_cache_max_entries),
      options.profile_cache_max_bytes);
  if (!options.store_dir.empty()) {
    state->disk = std::make_shared<store::Store>(options.store_dir);
    state->profile_cache.set_l2(
        std::make_shared<store::ProfileStoreL2>(state->disk));
    state->evaluator.set_estimate_l2(std::make_shared<store::EstimateStoreL2>(
        state->disk,
        store::estimate_scope(state->evaluator.platform(),
                              state->evaluator.calibration())));
  }
  sys::BatchRunner runner{options.threads};

  // Run journal (docs/MODEL.md §17): replay the ledger first when
  // resuming, then open it for appending. Records from a different
  // campaign fingerprint — or damaged beyond their checksum — are
  // ignored: a stale or torn ledger degrades to re-execution.
  const std::string fingerprint = campaign_fingerprint(options);
  std::unique_ptr<store::Journal> journal;
  std::map<std::string, CaseOutcome> restored;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      store::Journal::ReadResult ledger =
          store::Journal::read(options.journal_path);
      result.journal_skipped_lines = ledger.skipped_lines;
      for (store::Journal::Entry& entry : ledger.entries) {
        if (entry.fingerprint != fingerprint ||
            restored.count(entry.key) != 0) {
          continue;  // Stale campaign, or a benign duplicate (first wins —
                     // re-appends of a completed job carry identical bytes).
        }
        std::optional<CaseOutcome> outcome = decode_outcome(entry.payload);
        if (!outcome.has_value()) {
          ++result.journal_skipped_lines;
          continue;
        }
        restored.emplace(entry.key, std::move(*outcome));
      }
    }
    journal = std::make_unique<store::Journal>(options.journal_path);
  }

  // Phase 1: every owned design point at the requested tier; auto mode
  // starts analytic.
  result.cases = run_case_batch(
      runner, state, owned,
      std::vector<tiers::EscalationReason>(
          owned.size(), options.tier == tiers::TierMode::kCycle
                            ? tiers::EscalationReason::kRequested
                            : tiers::EscalationReason::kNone),
      restored, journal.get(), fingerprint, result);

  // Phase 2 (serial, auto mode): pick the designs that must climb to the
  // cycle tier — sim-free oracle failures and ranked contenders.
  if (options.tier == tiers::TierMode::kAuto) {
    std::vector<const tiers::TierEstimate*> estimates;
    std::vector<bool> oracle_demands;
    estimates.reserve(result.cases.size());
    oracle_demands.reserve(result.cases.size());
    for (const CaseOutcome& outcome : result.cases) {
      estimates.push_back(outcome.analytic.has_value() ? &*outcome.analytic
                                                       : nullptr);
      oracle_demands.push_back(
          std::any_of(outcome.oracles.begin(), outcome.oracles.end(),
                      [](const OracleResult& r) { return !r.pass; }));
    }
    // 2% of the sweep: escalated designs skew expensive to simulate (the
    // lowest analytic lower bounds are the high-volume, high-savings
    // candidates), so a wider cap erodes the tier speedup quickly.
    TierStats& stats = result.tier_stats;
    stats.rank_cap = std::max<std::uint64_t>(4, options.count / 50);
    const std::vector<tiers::EscalationReason> reasons =
        tiers::select_escalations(estimates, oracle_demands, stats.rank_cap,
                                  &stats.rank_contenders);

    // Phase 3: cycle-accurate evaluation of the escalated designs.
    std::vector<std::uint64_t> escalated;
    std::vector<tiers::EscalationReason> escalated_reasons;
    for (std::uint64_t index = 0; index < reasons.size(); ++index) {
      if (reasons[index] != tiers::EscalationReason::kNone) {
        escalated.push_back(index);
        escalated_reasons.push_back(reasons[index]);
      }
    }
    std::vector<CaseOutcome> escalated_outcomes =
        run_case_batch(runner, state, escalated, escalated_reasons, restored,
                       journal.get(), fingerprint, result);
    for (std::size_t slot = 0; slot < escalated.size(); ++slot) {
      if (escalated_outcomes[slot].skipped) {
        continue;  // Drained before its cycle run: keep the analytic row.
      }
      result.cases[escalated[slot]] = std::move(escalated_outcomes[slot]);
    }
  }

  finalize_tier_record(result, options);

  // Live counters for stdout reporting (never the CSV/REPORT: they vary
  // with thread count, shard split, and store warmth).
  result.profile_cache_stats = state->profile_cache.stats();
  result.estimate_l2_hits = state->evaluator.cache().l2_hits();
  result.estimate_l2_stores = state->evaluator.cache().l2_stores();
  if (state->disk != nullptr) {
    result.store_stats = state->disk->stats();
  }
  if (options.stop_requested != nullptr &&
      options.stop_requested->load(std::memory_order_relaxed)) {
    result.interrupted = true;
  }

  // Shrink the first failure of each distinct oracle (index order), up to
  // the budget. Serial and deterministic. An interrupted (draining) run
  // skips all shrinking to exit promptly — the resumed run emits the full
  // set.
  std::set<std::string> shrunk_oracles;
  for (const CaseOutcome& outcome : result.cases) {
    if (result.interrupted ||
        result.reproducers.size() >= options.max_shrinks) {
      break;
    }
    if (!outcome.ran() || outcome.quarantined || outcome.skipped) {
      continue;
    }
    for (const OracleResult& r : outcome.oracles) {
      if (r.pass || shrunk_oracles.count(r.oracle) != 0) {
        continue;
      }
      shrunk_oracles.insert(r.oracle);
      const Oracle oracle = find_oracle(r.oracle, options.bounds);
      const ShrinkResult shrunk = shrink(outcome.config, oracle);
      Reproducer reproducer;
      reproducer.oracle = r.oracle;
      reproducer.expect = Expectation::kPass;  ///< Green once fixed.
      reproducer.message = shrunk.failure.message;
      reproducer.config = shrunk.config;
      result.reproducers.push_back(std::move(reproducer));
      if (result.reproducers.size() >= options.max_shrinks) {
        break;
      }
    }
  }

  // Every quarantined row (fresh or resumed) yields a reproducer so the
  // poison config is pinned in the checked-in JSON format. The shrink
  // probe is itself supervised — a candidate of a genuinely wedged config
  // wedges too, costing a full watchdog budget per probe, hence the
  // separate (small) attempt budget. A wedge keyed on the environment
  // rather than the config (e.g. the test harness wedging one index)
  // fails to reproduce under the probe and is pinned unshrunk. Not gated
  // by max_shrinks: a --smoke run (max_shrinks 0) must still pin poison
  // jobs. "quarantine-*" names are not library oracles — these files
  // document the quarantine, they do not replay.
  for (const CaseOutcome& outcome : result.cases) {
    if (!outcome.quarantined || result.interrupted) {
      continue;
    }
    const double probe_timeout = options.job_timeout_seconds;
    const auto still_wedged =
        [probe_timeout](const apps::SyntheticConfig& candidate) {
          // The probe's copy of the candidate keeps an abandoned probe
          // thread safe after this frame unwinds.
          return sys::probe_supervised(
                     [candidate] { (void)run_design_case(candidate); },
                     probe_timeout) != sys::JobStatus::kOk;
        };
    const ConfigShrink shrunk = shrink_config(
        outcome.config, still_wedged, options.quarantine_shrink_attempts);
    Reproducer reproducer;
    reproducer.oracle = outcome.error.find("watchdog") != std::string::npos
                            ? "quarantine-timeout"
                            : "quarantine-crash";
    reproducer.expect = Expectation::kFail;  ///< Pinned live failure.
    reproducer.message = outcome.error;
    reproducer.config = shrunk.config;
    result.reproducers.push_back(std::move(reproducer));
  }
  return result;
}

std::string campaign_csv(const CampaignResult& result) {
  std::ostringstream out;
  out << "index,seed,kernels,edge_p,min_edge_bytes,max_edge_bytes,"
         "min_work,max_work,dup_p,stream_p,solution,baseline_s,designed_s,"
         "crossbar_s,pipelined_makespan_s,measured_kernel_s";
  for (const std::string& oracle : result.oracle_names) {
    out << ',' << oracle;
  }
  out << ",tier,escalation,analytic_baseline_s,analytic_designed_s,"
         "analytic_lo_s,analytic_hi_s,noc_hop_bytes,congruence_key,"
         "congruent,profile_key,profile_reused,band_violation";
  // Searched columns exist only in --search campaigns: every other
  // campaign keeps its historical schema byte for byte.
  if (result.searched) {
    out << ",searched_solution,searched_analytic_s,searched_alg1_s,"
           "searched_luts,searched_alg1_luts,searched_gain,"
           "searched_restart,searched_proposed,searched_accepted,"
           "searched_rejected,searched_cache_hits";
  }
  // Board columns exist only in multi-board campaigns: single-board CSVs
  // keep their historical schema byte for byte (and merge_shards.py
  // refuses to mix the two schemas).
  if (result.multi_board) {
    out << ",boards,board_topology,cut_bytes,multi_total_s,"
           "inter_board_bytes,board_reroutes";
  }
  out << ",quarantined,error\n";
  for (const CaseOutcome& c : result.cases) {
    out << c.index << ',' << c.config.seed << ',' << c.config.kernel_count
        << ',' << decimal17(c.config.kernel_edge_probability) << ','
        << c.config.min_edge_bytes << ',' << c.config.max_edge_bytes << ','
        << c.config.min_work_units << ',' << c.config.max_work_units << ','
        << decimal17(c.config.duplicable_probability) << ','
        << decimal17(c.config.streaming_probability) << ','
        << csv_safe(c.solution_tag);
    // Analytic-only rows never ran a simulator: their cycle timings are
    // "-" (absent), not zero.
    if (c.simulated) {
      out << ',' << decimal17(c.baseline_seconds) << ','
          << decimal17(c.designed_seconds) << ','
          << decimal17(c.crossbar_seconds) << ','
          << decimal17(c.pipelined_makespan_seconds) << ','
          << decimal17(c.measured_designed_kernel_seconds);
    } else {
      out << ",-,-,-,-,-";
    }
    for (const std::string& oracle : result.oracle_names) {
      const OracleResult* found = nullptr;
      for (const OracleResult& r : c.oracles) {
        if (r.oracle == oracle) {
          found = &r;
        }
      }
      out << ',' << (found == nullptr ? "-" : found->pass ? "1" : "0");
    }
    // Quarantined/skipped rows never picked a tier — their tier cell is
    // "-", which also keeps the resumed CSV independent of which run
    // quarantined the job.
    if (c.quarantined || c.skipped) {
      out << ",-," << to_string(c.escalation);
    } else {
      out << ',' << c.tier_name() << ',' << to_string(c.escalation);
    }
    if (c.analytic.has_value()) {
      out << ',' << decimal17(c.analytic->baseline_kernel_seconds) << ','
          << decimal17(c.analytic->designed_kernel_seconds) << ','
          << decimal17(c.analytic->designed_lower_seconds) << ','
          << decimal17(c.analytic->designed_upper_seconds) << ','
          << c.analytic->noc_hop_bytes << ','
          << hex_key(c.analytic->congruence_key) << ','
          << (c.congruent ? '1' : '0');
    } else {
      out << ",-,-,-,-,-,-,-";
    }
    out << ',' << c.profile_key << ',' << (c.profile_reused ? '1' : '0');
    out << ','
        << (c.simulated && c.analytic.has_value()
                ? (c.band_violation ? "1" : "0")
                : "-");
    if (result.searched) {
      if (c.searched.has_value()) {
        const search::SearchRecord& s = *c.searched;
        out << ',' << csv_safe(s.solution_tag) << ','
            << decimal17(s.analytic_seconds) << ','
            << decimal17(s.algorithm1_analytic_seconds) << ',' << s.luts << ','
            << s.algorithm1_luts << ',' << decimal17(s.gain) << ','
            << s.best_restart << ',' << s.proposed << ',' << s.accepted
            << ',' << s.rejected_illegal << ',' << s.cache_hits;
      } else {
        out << ",-,-,-,-,-,-,-,-,-,-,-";
      }
    }
    if (result.multi_board) {
      out << ',' << c.config.board_count << ',' << c.config.board_topology
          << ',' << c.cut_bytes;
      // The multi run only exists on simulated multi-board rows.
      if (c.simulated && c.config.board_count > 1) {
        out << ',' << decimal17(c.multi_total_seconds) << ','
            << c.inter_board_bytes << ',' << c.board_link_reroutes;
      } else {
        out << ",-,-,-";
      }
    }
    out << ',' << (c.quarantined ? '1' : '0') << ',' << csv_safe(c.error)
        << '\n';
  }
  return out.str();
}

namespace {

/// Move-stat totals for the markdown digest.
struct SearchStatsTotals {
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_illegal = 0;
  std::uint64_t cache_hits = 0;
};

}  // namespace

const char* campaign_section_marker() {
  return "## Design-space exploration campaign";
}

std::string campaign_markdown(const CampaignResult& result,
                              const CampaignOptions& options) {
  std::ostringstream md;
  md << campaign_section_marker() << "\n\n";
  md << result.cases.size() << " synthetic designs swept (campaign seed "
     << options.campaign_seed << ", kernels "
     << options.space.min_kernels << "-" << options.space.max_kernels
     << ", edge density " << options.space.min_edge_probability << "-"
     << options.space.max_edge_probability
     << "), each run through profiling and Algorithm 1, priced by the "
        "tiered evaluation engine (docs/MODEL.md §14), and checked "
        "against the invariant-oracle library (docs/TESTING.md); "
        "cycle-tier rows additionally run all five system variants.\n\n";
  if (result.multi_board) {
    md << "Board dimension swept: " << options.space.min_boards << "-"
       << options.space.max_boards << " boards over topologies {";
    for (std::size_t i = 0; i < options.space.board_topologies.size(); ++i) {
      md << (i == 0 ? "" : ", ") << options.space.board_topologies[i];
    }
    md << "}; multi-board rows run the two-level design (min-cut board "
          "partition, then per-board Algorithm 1) and the inter-board "
          "link simulation, checked by the board-byte-conservation "
          "oracle.\n\n";
  }
  md << "| oracle | pass | fail | rate |\n|---|---|---|---|\n";
  for (const std::string& oracle : result.oracle_names) {
    const std::uint64_t pass = result.verdict_count(oracle, true);
    const std::uint64_t failed = result.verdict_count(oracle, false);
    const std::uint64_t total = pass + failed;
    std::ostringstream rate;
    rate.precision(4);
    rate << (total == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(pass) /
                       static_cast<double>(total));
    md << "| " << oracle << " | " << pass << " | " << failed << " | "
       << rate.str() << "% |\n";
  }
  md << "\nCases erroring before the oracles ran: " << result.error_count()
     << ".\n";

  // Tier-disagreement table (docs/MODEL.md §14): how often the analytic
  // tier sufficed, why rows escalated, and how honest the band is.
  const TierStats& tiers_stats = result.tier_stats;
  std::ostringstream rate;
  rate.precision(4);
  rate << 100.0 * tiers_stats.escalation_rate(result.cases.size());
  md << "\n### Tier disagreement (`--tier=" << to_string(tiers_stats.mode)
     << "`)\n\n"
     << "| quantity | value |\n|---|---|\n"
     << "| analytic evaluations | " << tiers_stats.analytic_evals << " |\n"
     << "| cycle evaluations | " << tiers_stats.cycle_evals << " |\n"
     << "| escalations (rank-overlap / oracle) | "
     << tiers_stats.escalated_rank << " / " << tiers_stats.escalated_oracle
     << " |\n"
     << "| rank contenders before cap (cap) | "
     << tiers_stats.rank_contenders << " (" << tiers_stats.rank_cap
     << ") |\n"
     << "| escalation rate | " << rate.str() << "% |\n"
     << "| band checks / violations | " << tiers_stats.band_checks << " / "
     << tiers_stats.band_violations << " |\n";
  {
    std::ostringstream worst;
    worst.precision(4);
    worst << tiers_stats.worst_measured_over_analytic << "x / "
          << tiers_stats.worst_analytic_over_measured << "x";
    md << "| worst measured/analytic, analytic/measured | " << worst.str()
       << " |\n";
  }
  md << "| congruent designs / distinct signatures | "
     << tiers_stats.congruent_designs << " / "
     << tiers_stats.distinct_signatures << " |\n";
  md << "| reused profiles / distinct profiles | "
     << tiers_stats.reused_profiles << " / "
     << tiers_stats.distinct_profiles << " |\n";

  // Pareto digest of the annealed search against Algorithm 1. Regressed
  // and over-budget counts are structurally zero (the annealer seeds at
  // the greedy decisions and hard-caps candidates at Algorithm 1's LUT
  // total) — printing them keeps the claim falsifiable in the report.
  if (result.searched) {
    std::uint64_t rows = 0;
    std::uint64_t improved = 0;
    std::uint64_t matched = 0;
    std::uint64_t regressed = 0;
    std::uint64_t over_budget = 0;
    std::uint64_t fewer_luts = 0;
    double best_gain = 1.0;
    double sum_gain = 0.0;
    SearchStatsTotals totals;
    for (const CaseOutcome& c : result.cases) {
      if (!c.searched.has_value()) {
        continue;
      }
      const search::SearchRecord& s = *c.searched;
      ++rows;
      if (s.analytic_seconds < s.algorithm1_analytic_seconds) {
        ++improved;
      } else if (s.analytic_seconds == s.algorithm1_analytic_seconds) {
        ++matched;
      } else {
        ++regressed;
      }
      if (s.luts > s.algorithm1_luts) {
        ++over_budget;
      }
      if (s.luts < s.algorithm1_luts) {
        ++fewer_luts;
      }
      best_gain = std::max(best_gain, s.gain);
      sum_gain += s.gain;
      totals.proposed += s.proposed;
      totals.accepted += s.accepted;
      totals.rejected_illegal += s.rejected_illegal;
      totals.cache_hits += s.cache_hits;
    }
    std::ostringstream gains;
    gains.precision(4);
    gains << best_gain << "x best / "
          << (rows == 0 ? 1.0 : sum_gain / static_cast<double>(rows))
          << "x mean";
    md << "\n### Algorithm 1 vs searched (`--search=anneal`)\n\n"
       << "Seeded annealing over the move space of docs/MODEL.md §18 ("
       << options.search_restarts << " restarts x "
       << options.search_iterations
       << " iterations per case, oracle-gated, LUT-capped at Algorithm "
          "1's total), fitness = the analytic tier's designed kernel "
          "seconds.\n\n"
       << "| quantity | value |\n|---|---|\n"
       << "| searched rows | " << rows << " |\n"
       << "| improved on Algorithm 1 (analytic) | " << improved << " |\n"
       << "| matched Algorithm 1 | " << matched << " |\n"
       << "| regressed (must be 0) | " << regressed << " |\n"
       << "| over LUT budget (must be 0) | " << over_budget << " |\n"
       << "| improved while using fewer LUTs | " << fewer_luts << " |\n"
       << "| analytic gain | " << gains.str() << " |\n"
       << "| moves proposed / accepted / rejected illegal / cache hits | "
       << totals.proposed << " / " << totals.accepted << " / "
       << totals.rejected_illegal << " / " << totals.cache_hits << " |\n";
  }
  if (!result.reproducers.empty()) {
    md << "\nShrunk reproducers (replayed by `test_dse_regressions` once "
          "checked in under `tests/fixtures/dse/`):\n\n";
    for (const Reproducer& r : result.reproducers) {
      md << "- `" << reproducer_file_name(r) << "` — " << r.oracle << ": "
         << r.message << "\n";
    }
  }
  md << "\nFull per-design rows: `bench_results/dse_campaign.csv`.\n";
  return md.str();
}

std::vector<std::string> save_reproducers(const CampaignResult& result,
                                          const std::string& dir) {
  std::vector<std::string> paths;
  if (result.reproducers.empty()) {
    return paths;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const Reproducer& reproducer : result.reproducers) {
    const std::string path = dir + "/" + reproducer_file_name(reproducer);
    std::ofstream out{path};
    require(out.good(), "cannot write reproducer: " + path);
    out << to_json(reproducer);
    paths.push_back(path);
  }
  return paths;
}

}  // namespace hybridic::dse
