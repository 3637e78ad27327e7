// Property-based design-space exploration campaign: generates seeded
// SyntheticConfig variations across the sweep space, evaluates every
// design point through the tiered engine on the BatchRunner — analytic
// first, cycle-accurate where the tier policy escalates — checks the
// invariant oracle library per design, and shrinks failures into
// standalone JSON reproducers. Deterministic: the outcome (CSV, markdown,
// tier stats, reproducers) is byte-identical at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "dse/oracles.hpp"
#include "dse/reproducer.hpp"
#include "search/anneal.hpp"
#include "store/store.hpp"
#include "tiers/tiered_evaluator.hpp"

namespace hybridic::dse {

/// The swept region of the SyntheticConfig space.
struct SweepSpace {
  std::uint32_t min_kernels = 2;
  std::uint32_t max_kernels = 10;
  double min_edge_probability = 0.05;
  double max_edge_probability = 0.95;
  std::uint64_t min_edge_bytes_floor = 64;
  std::uint64_t max_edge_bytes_ceiling = 128 * 1024;
  std::uint64_t min_work_units_floor = 1'000;
  std::uint64_t max_work_units_ceiling = 400'000;

  /// Board dimension. With max_boards == 1 (the default) the sampler
  /// draws nothing extra, so every pre-multi-board campaign replays its
  /// exact RNG stream and CSV. With max_boards > 1 board count and
  /// topology are drawn after all existing fields.
  std::uint32_t min_boards = 1;
  std::uint32_t max_boards = 1;
  std::vector<std::string> board_topologies = {"chain"};

  [[nodiscard]] bool multi_board() const { return max_boards > 1; }
};

/// Deterministically sample the `index`-th config of a campaign. The
/// sample depends only on (space, campaign_seed, index) — never on thread
/// count or submission order.
[[nodiscard]] apps::SyntheticConfig sample_config(const SweepSpace& space,
                                                  std::uint64_t campaign_seed,
                                                  std::uint64_t index);

/// Outcome of one explored design point.
struct CaseOutcome {
  std::uint64_t index = 0;
  apps::SyntheticConfig config;
  std::string solution_tag;
  double baseline_seconds = 0.0;
  double designed_seconds = 0.0;
  double crossbar_seconds = 0.0;
  double pipelined_makespan_seconds = 0.0;
  std::vector<OracleResult> oracles;
  std::string error;  ///< Exception message when the case itself failed.
  /// Poison job: the supervised runner abandoned it (wall-clock watchdog
  /// expired) or it crashed past its transient retry budget. The row
  /// keeps its config but carries no timings or oracle verdicts; `error`
  /// holds the deterministic "quarantined: ..." note.
  bool quarantined = false;
  /// Never ran: a graceful drain (SIGINT/SIGTERM) stopped admission
  /// before this job started. Skipped rows are NOT journaled, so a
  /// resumed campaign re-executes them.
  bool skipped = false;
  /// Restored from the run journal instead of being re-executed
  /// (stdout-only provenance; never surfaces in the CSV).
  bool resumed = false;

  // ---- Tier record. ----
  /// Ran through the cycle-accurate engine (cycle mode or escalated).
  bool simulated = false;
  tiers::EscalationReason escalation = tiers::EscalationReason::kNone;
  /// The analytic tier's estimate; absent when the case errored before
  /// the estimator ran.
  std::optional<tiers::TierEstimate> analytic;
  /// Simulated designed kernel seconds (the value the band brackets);
  /// only meaningful on simulated rows.
  double measured_designed_kernel_seconds = 0.0;
  /// Simulated result escaped the calibrated band (simulated rows only).
  bool band_violation = false;
  /// An earlier index produced the same congruence key (serial, in index
  /// order, so the flag is thread-count invariant).
  bool congruent = false;
  /// Content hash of this row's profile identity (the profile cache / L2
  /// store key for the config) — 16 hex digits, derived purely from the
  /// config, so it is shard- and thread-count invariant.
  std::string profile_key;
  /// An earlier index shares profile_key (serial first-seen pass, like
  /// `congruent`; recomputed globally by tools/merge_shards.py).
  bool profile_reused = false;

  /// Annealed-search record (--search=anneal): the oracle-gated,
  /// LUT-capped search result next to Algorithm 1's pricing. Absent when
  /// search is off or the case errored first; the CSV emits searched_*
  /// columns only in search campaigns, so non-search campaigns keep
  /// their schema byte-identical.
  std::optional<search::SearchRecord> searched;

  // ---- Multi-board record (meaningful only in multi-board campaigns;
  // the CSV emits these columns only there, so single-board campaigns
  // keep their schema byte-identical). ----
  double multi_total_seconds = 0.0;     ///< Multi-board run wall time.
  std::uint64_t cut_bytes = 0;          ///< Partition cut (unique bytes).
  std::uint64_t inter_board_bytes = 0;  ///< Bytes the links moved.
  std::uint64_t board_link_reroutes = 0;

  [[nodiscard]] bool ran() const { return error.empty(); }
  [[nodiscard]] bool all_pass() const;
  [[nodiscard]] const char* tier_name() const {
    return simulated ? "cycle" : "analytic";
  }
};

struct CampaignOptions {
  std::uint64_t count = 1000;
  std::uint64_t campaign_seed = 1;
  std::size_t threads = 0;  ///< 0 = hardware concurrency.
  SweepSpace space;
  OracleBounds bounds;
  /// Shrink at most this many failures (the first per distinct oracle, in
  /// index order) into reproducers.
  std::uint32_t max_shrinks = 4;
  /// Which evaluation tier(s) to run (docs/MODEL.md §14).
  tiers::TierMode tier = tiers::TierMode::kCycle;
  /// Run the annealed search (src/search/) on every successful case and
  /// record it next to Algorithm 1 (searched_* CSV columns + the
  /// "Algorithm 1 vs searched" REPORT section). The annealer is gated by
  /// the simulation-free oracles and runs serially inside the case job,
  /// so campaign determinism is unchanged.
  bool search = false;
  std::uint32_t search_restarts = 2;
  std::uint32_t search_iterations = 60;

  // ---- Persistent store + sharding (docs/MODEL.md §15). ----
  /// Root of the content-addressed result store; empty = in-memory only.
  /// Profiles and analytic estimates are read through / written back, so
  /// a restarted process (or a sibling shard) reuses them.
  std::string store_dir;
  /// This process evaluates indices where index % shard_count ==
  /// shard_index; rows keep their global indices. shard_count > 1 is
  /// rejected for --tier=auto (escalation selection needs every
  /// estimate, which no single shard holds).
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// In-memory profile-cache caps (0 = unbounded). Evicted entries fall
  /// back to the store when one is attached.
  std::uint64_t profile_cache_max_entries = 64;
  std::uint64_t profile_cache_max_bytes = 0;

  // ---- Crash safety (docs/MODEL.md §17). ----
  /// Append-only completion ledger; empty = no journal. Rejected for
  /// --tier=auto (escalation selection is global, like sharding).
  std::string journal_path;
  /// Replay journal_path before running and skip every job whose record
  /// matches this campaign's fingerprint. Requires journal_path.
  bool resume = false;
  /// Per-job wall-clock watchdog in seconds; 0 = none. A job that
  /// exceeds it is abandoned and quarantined, never retried.
  double job_timeout_seconds = 0.0;
  /// Bounded retry budget for transient failures (store::StoreError — a
  /// flaky filesystem, not a logic bug).
  std::uint32_t transient_retries = 2;
  double backoff_initial_seconds = 0.005;
  /// Shrink budget per quarantined job (supervised probes; each probe of
  /// a genuinely wedged candidate costs a full watchdog timeout).
  std::uint32_t quarantine_shrink_attempts = 8;
  /// Graceful-drain admission gate: when set and true, owned jobs that
  /// have not started are skipped (not journaled — a resume re-runs
  /// them); in-flight jobs finish under the watchdog.
  const std::atomic<bool>* stop_requested = nullptr;
  /// Test hook, called at the start of every job body with the case
  /// index (lets a harness wedge one specific index).
  std::function<void(std::uint64_t)> job_started_hook;
};

/// Why `options` cannot run, or nullopt when they can: the shard lies in
/// range, --resume has a journal, and auto mode is neither sharded nor
/// journaled (its escalation selection ranks every estimate of the sweep,
/// which no shard or partial ledger holds). run_campaign throws the
/// reason as a ConfigError; dse_campaign reports it as a usage error.
[[nodiscard]] std::optional<std::string> options_error(
    const CampaignOptions& options);

/// 16-hex fingerprint of everything that determines a campaign's rows:
/// engine revision, tier, seed/count, shard spec, sweep space, oracle
/// bounds, and the watchdog budget (quarantined rows embed its message).
/// Journal entries recorded under a different fingerprint are ignored on
/// resume — a stale ledger degrades to re-execution, never to wrong rows.
[[nodiscard]] std::string campaign_fingerprint(const CampaignOptions& options);

/// Aggregate tier-disagreement statistics for one campaign, assembled
/// serially from the outcomes (thread-count invariant).
struct TierStats {
  tiers::TierMode mode = tiers::TierMode::kCycle;
  std::uint64_t analytic_evals = 0;  ///< Designs the analytic tier priced.
  std::uint64_t cycle_evals = 0;     ///< Designs the cycle engine ran.
  std::uint64_t escalated_rank = 0;
  std::uint64_t escalated_oracle = 0;
  std::uint64_t rank_contenders = 0;  ///< Overlap set size before the cap.
  /// Applied cap (auto mode): max(4, count / 50). The calibrated band is
  /// wide enough that every candidate overlaps the winner on most sweeps,
  /// so auto mode keeps only the most promising contenders (lowest
  /// analytic lower bounds).
  std::uint64_t rank_cap = 0;
  std::uint64_t band_checks = 0;      ///< Simulated rows with an estimate.
  std::uint64_t band_violations = 0;  ///< Measured escaped the band.
  /// Worst-case disagreement over the checked rows: measured over
  /// analytic mid-point and its inverse.
  double worst_measured_over_analytic = 0.0;
  double worst_analytic_over_measured = 0.0;
  std::uint64_t congruent_designs = 0;    ///< Rows sharing an earlier key.
  std::uint64_t distinct_signatures = 0;  ///< Unique congruence keys.
  std::uint64_t reused_profiles = 0;      ///< Rows sharing an earlier profile.
  std::uint64_t distinct_profiles = 0;    ///< Unique profile keys.

  [[nodiscard]] double escalation_rate(std::uint64_t total) const {
    return total == 0 ? 0.0
                      : static_cast<double>(cycle_evals) /
                            static_cast<double>(total);
  }
};

struct CampaignResult {
  std::vector<std::string> oracle_names;  ///< Library order.
  std::vector<CaseOutcome> cases;         ///< Index order.
  std::vector<Reproducer> reproducers;    ///< Shrunk failures.
  TierStats tier_stats;
  /// Campaign swept the board dimension (space.multi_board()): the CSV
  /// gains the boards/topology/inter-board columns and the oracle library
  /// includes board-byte-conservation.
  bool multi_board = false;
  /// Campaign ran the annealed search (options.search): the CSV gains the
  /// searched_* columns and the REPORT gains the Pareto section.
  bool searched = false;

  // ---- Live cache/store counters. Machine- and run-dependent (they vary
  // with thread count and store warmth), so they go to stdout only —
  // never into the CSV or REPORT, which stay byte-identical.
  apps::ProfileCacheStats profile_cache_stats;
  std::uint64_t estimate_l2_hits = 0;
  std::uint64_t estimate_l2_stores = 0;
  std::optional<store::StoreStats> store_stats;  ///< Set when store_dir used.

  // ---- Crash-safety record (docs/MODEL.md §17). ----
  std::uint64_t quarantined_count = 0;  ///< Poison jobs fenced off.
  std::uint64_t skipped_count = 0;      ///< Drained before starting.
  std::uint64_t resumed_count = 0;      ///< Restored from the journal.
  std::uint64_t journal_skipped_lines = 0;  ///< Damaged ledger lines.
  /// A graceful drain cut the run short (skipped_count > 0 or the stop
  /// flag was raised): the CSV is partial and a --resume should follow.
  bool interrupted = false;

  /// Rows whose `oracle` verdict is `pass`.
  [[nodiscard]] std::uint64_t verdict_count(const std::string& oracle,
                                            bool pass) const;
  [[nodiscard]] std::uint64_t error_count() const;
};

/// Run the campaign. Deterministic at any `threads`.
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& options);

/// CSV: one row per case — config fields, variant timings, one 0/1 column
/// per oracle, error note. Byte-stable across thread counts.
[[nodiscard]] std::string campaign_csv(const CampaignResult& result);

/// Markdown section (oracle pass rates + failure digest) for REPORT.md.
[[nodiscard]] std::string campaign_markdown(const CampaignResult& result,
                                            const CampaignOptions& options);

/// Marker line the markdown section starts with.
[[nodiscard]] const char* campaign_section_marker();

/// Write each reproducer under `dir` (created if needed); returns the
/// paths written.
std::vector<std::string> save_reproducers(const CampaignResult& result,
                                          const std::string& dir);

}  // namespace hybridic::dse
