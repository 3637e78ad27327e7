// TieredEvaluator — the front door of the two-tier evaluation engine.
//
// Tier 1 (analytic, ~25x cheaper): profile the app, run Algorithm 1, and
// price the design with analytic_estimate() — no event queue. Tier 2
// (cycle-accurate): the existing engine-driven pipeline. The evaluator
// owns the escalation policy: a design climbs to tier 2 only when the
// calibrated band of a ranked contender overlaps the provable winner's
// band (interval pruning), when an oracle demands exact traces, or when
// the caller asked for --tier=cycle outright. docs/MODEL.md §14 states
// the model; the DSE campaign wires the policy across BatchRunner phases.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "sys/platform.hpp"
#include "tiers/analytic.hpp"
#include "tiers/congruence.hpp"

namespace hybridic::tiers {

/// Which tier(s) the caller wants.
enum class TierMode : std::uint8_t {
  kAuto,      ///< Analytic everywhere, escalate where ranking demands.
  kAnalytic,  ///< Analytic only — never touch the cycle engine.
  kCycle,     ///< Cycle-accurate everywhere (the pre-tier behaviour).
};

/// Parse "auto" / "analytic" / "cycle"; nullopt for anything else.
[[nodiscard]] std::optional<TierMode> parse_tier_mode(std::string_view text);
[[nodiscard]] const char* to_string(TierMode mode);

/// Why one design point escalated to the cycle-accurate tier.
enum class EscalationReason : std::uint8_t {
  kNone,         ///< Stayed analytic.
  kRequested,    ///< Caller passed --tier=cycle.
  kRankOverlap,  ///< Band overlaps the ranked winner's band.
  kOracle,       ///< An oracle needs exact traces (sim-free check failed).
};
[[nodiscard]] const char* to_string(EscalationReason reason);

/// The analytic tier's product for one design point: everything the
/// cycle-free half of the pipeline produces.
struct AnalyticCase {
  /// Shares the graph the schedule points into (with the profile cache,
  /// when one was supplied).
  std::shared_ptr<const apps::ProfiledApp> app;
  sys::AppSchedule schedule;
  core::DesignResult proposed;
  core::DesignResult noc_only;
  double theta_seconds_per_byte = 0.0;
  TierEstimate estimate;  ///< For `proposed`, congruence-cached.
};

class TieredEvaluator {
public:
  explicit TieredEvaluator(sys::PlatformConfig platform = {},
                           TierCalibration calibration = {});

  /// Tier-1 evaluation of one synthetic config: profile, Algorithm 1
  /// (proposed + NoC-only designs), analytic estimate. Thread-safe;
  /// throws ConfigError on invalid configs like the cycle pipeline.
  /// With a cache the profiling phase is memoized (and may come from the
  /// cache's persistent L2 tier).
  [[nodiscard]] AnalyticCase analyze(const apps::SyntheticConfig& config,
                                     apps::ProfileCache* cache = nullptr);

  /// Estimate an already-designed schedule (congruence-cached). Used by
  /// the cycle tier to attach disagreement stats without re-profiling.
  [[nodiscard]] TierEstimate estimate(const sys::AppSchedule& schedule,
                                      const core::DesignResult& design);

  /// Theta the analytic tier feeds Algorithm 1, computed once per
  /// evaluator from the platform's bus config.
  [[nodiscard]] double theta_seconds_per_byte() const { return theta_; }

  [[nodiscard]] const sys::PlatformConfig& platform() const {
    return platform_;
  }
  [[nodiscard]] const TierCalibration& calibration() const {
    return calibration_;
  }
  [[nodiscard]] const CongruenceCache& cache() const { return cache_; }

  /// Attach a persistent L2 tier behind the congruence cache: misses
  /// consult it before computing, computed estimates are written back.
  void set_estimate_l2(std::shared_ptr<EstimateL2> l2) {
    cache_.set_l2(std::move(l2));
  }

private:
  sys::PlatformConfig platform_;
  TierCalibration calibration_;
  double theta_ = 0.0;
  CongruenceCache cache_;
};

/// Deterministic interval-pruning escalation over a ranked batch.
/// `estimates[i]` is null when design i errored before estimation (it
/// cannot be ranked, so it never escalates here); `oracle_demands[i]`
/// marks designs whose sim-free oracles already failed — they escalate
/// with kOracle so the full library and the shrinker see exact traces.
/// Everything else escalates with kRankOverlap iff its band reaches below
/// the lowest guaranteed ceiling (min upper bound) of the batch — the
/// candidates among which the true winner may hide. `max_rank_escalations`
/// caps the rank-overlap set (0 = uncapped), keeping the cheapest lower
/// bounds first; the cap is reported, never silent: `rank_contenders`,
/// when given, receives the set's size before the cap.
[[nodiscard]] std::vector<EscalationReason> select_escalations(
    const std::vector<const TierEstimate*>& estimates,
    const std::vector<bool>& oracle_demands,
    std::uint64_t max_rank_escalations = 0,
    std::uint64_t* rank_contenders = nullptr);

}  // namespace hybridic::tiers
