#include "tiers/tiered_evaluator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/interconnect_design.hpp"

namespace hybridic::tiers {

std::optional<TierMode> parse_tier_mode(std::string_view text) {
  if (text == "auto") {
    return TierMode::kAuto;
  }
  if (text == "analytic") {
    return TierMode::kAnalytic;
  }
  if (text == "cycle") {
    return TierMode::kCycle;
  }
  return std::nullopt;
}

const char* to_string(TierMode mode) {
  switch (mode) {
    case TierMode::kAuto:
      return "auto";
    case TierMode::kAnalytic:
      return "analytic";
    case TierMode::kCycle:
      return "cycle";
  }
  return "?";
}

const char* to_string(EscalationReason reason) {
  switch (reason) {
    case EscalationReason::kNone:
      return "none";
    case EscalationReason::kRequested:
      return "requested";
    case EscalationReason::kRankOverlap:
      return "rank-overlap";
    case EscalationReason::kOracle:
      return "oracle";
  }
  return "?";
}

TieredEvaluator::TieredEvaluator(sys::PlatformConfig platform,
                                 TierCalibration calibration)
    : platform_(std::move(platform)),
      calibration_(calibration),
      theta_(sys::bus_theta(platform_)) {}

AnalyticCase TieredEvaluator::analyze(const apps::SyntheticConfig& config,
                                      apps::ProfileCache* cache) {
  AnalyticCase out;
  out.app = cache != nullptr
                ? cache->synthetic_app(config)
                : std::make_shared<const apps::ProfiledApp>(
                      apps::make_synthetic_app(config));
  out.schedule = out.app->schedule();
  out.theta_seconds_per_byte = theta_;

  core::DesignInput input;
  input.graph = out.schedule.graph;
  input.kernels = out.schedule.specs;
  input.kernel_clock = platform_.kernel_clock;
  input.theta.seconds_per_byte = theta_;
  input.stream_overhead_seconds = platform_.stream_overhead_seconds;
  input.duplication_overhead_seconds =
      platform_.duplication_overhead_seconds;
  out.proposed = core::design_interconnect(input);

  core::DesignInput noc_only_input = input;
  noc_only_input.enable_shared_memory = false;
  noc_only_input.enable_adaptive_mapping = false;
  out.noc_only = core::design_interconnect(noc_only_input);

  out.estimate = estimate(out.schedule, out.proposed);
  return out;
}

TierEstimate TieredEvaluator::estimate(const sys::AppSchedule& schedule,
                                       const core::DesignResult& design) {
  const std::uint64_t key = congruence_key_of(
      congruence_signature(schedule, design, theta_));
  return cache_.get(key, [&] {
    return analytic_estimate(schedule, design, platform_, theta_,
                             calibration_);
  });
}

std::vector<EscalationReason> select_escalations(
    const std::vector<const TierEstimate*>& estimates,
    const std::vector<bool>& oracle_demands,
    std::uint64_t max_rank_escalations, std::uint64_t* rank_contenders) {
  std::vector<EscalationReason> reasons(estimates.size(),
                                        EscalationReason::kNone);
  // The lowest guaranteed ceiling: some design provably finishes within
  // it, so any candidate whose lower bound clears it cannot win.
  double best_upper = std::numeric_limits<double>::infinity();
  for (const TierEstimate* estimate : estimates) {
    if (estimate != nullptr) {
      best_upper = std::min(best_upper, estimate->designed_upper_seconds);
    }
  }
  std::vector<std::size_t> contenders;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    if (i < oracle_demands.size() && oracle_demands[i]) {
      reasons[i] = EscalationReason::kOracle;
      continue;
    }
    if (estimates[i] != nullptr &&
        estimates[i]->designed_lower_seconds <= best_upper) {
      contenders.push_back(i);
    }
  }
  if (rank_contenders != nullptr) {
    *rank_contenders = contenders.size();
  }
  // Cap by keeping the most promising (lowest lower-bound) contenders;
  // ties resolve by index so the set is thread-count independent.
  if (max_rank_escalations != 0 &&
      contenders.size() > max_rank_escalations) {
    std::sort(contenders.begin(), contenders.end(),
              [&estimates](std::size_t a, std::size_t b) {
                const double la = estimates[a]->designed_lower_seconds;
                const double lb = estimates[b]->designed_lower_seconds;
                return la != lb ? la < lb : a < b;
              });
    contenders.resize(max_rank_escalations);
  }
  for (const std::size_t i : contenders) {
    reasons[i] = EscalationReason::kRankOverlap;
  }
  return reasons;
}

}  // namespace hybridic::tiers
