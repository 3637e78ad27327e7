// Tiered evaluation engine tests (docs/MODEL.md §14): HopAccount
// composition, tier-mode parsing, the interval-pruning escalation policy,
// congruence signatures and the cache, and the two campaign-level
// properties the engine stands on — the analytic band contains the
// cycle-accurate result for every sampled design, and the tier record
// (CSV, markdown, stats) is byte-identical at any thread count, with
// auto-mode escalated rows matching their cycle-mode counterparts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/case_runner.hpp"
#include "noc/topology.hpp"
#include "search/anneal.hpp"
#include "sys/experiment.hpp"
#include "tiers/analytic.hpp"
#include "tiers/congruence.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/hash.hpp"

namespace hybridic::tiers {
namespace {

// ---------------------------------------------------------------------------
// HopAccount: per-link accumulation.
// ---------------------------------------------------------------------------

TEST(HopAccount, XyRouteAccountsHopTimesBytes) {
  const noc::Mesh2D mesh{3, 3};
  HopAccount account;
  // (0,0) -> (2,1): 2 X hops + 1 Y hop = 3 links crossed, each carrying
  // the route's 100 bytes once.
  account.add_route(mesh, mesh.id_of({0, 0}), mesh.id_of({2, 1}), 100);
  EXPECT_EQ(account.total_hop_bytes(), 300u);
  EXPECT_EQ(account.max_link_bytes(), 100u);
}

TEST(HopAccount, SelfRouteCrossesNoLinks) {
  const noc::Mesh2D mesh{2, 2};
  HopAccount account;
  account.add_route(mesh, 3, 3, 4096);
  EXPECT_EQ(account.total_hop_bytes(), 0u);
  EXPECT_EQ(account.max_link_bytes(), 0u);
}

TEST(HopAccount, ScratchIsClearedOnEveryAcquire) {
  {
    HopAccount& scratch = HopAccount::scratch();
    scratch.add_route(noc::Mesh2D{2, 2}, 0, 3, 999);
    EXPECT_GT(scratch.total_hop_bytes(), 0u);
  }
  EXPECT_EQ(HopAccount::scratch().total_hop_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Tier-mode parsing.
// ---------------------------------------------------------------------------

TEST(TierMode, ParsesTheThreeModesAndRejectsEverythingElse) {
  EXPECT_EQ(parse_tier_mode("auto"), TierMode::kAuto);
  EXPECT_EQ(parse_tier_mode("analytic"), TierMode::kAnalytic);
  EXPECT_EQ(parse_tier_mode("cycle"), TierMode::kCycle);
  EXPECT_FALSE(parse_tier_mode("").has_value());
  EXPECT_FALSE(parse_tier_mode("Auto").has_value());
  EXPECT_FALSE(parse_tier_mode("hybrid").has_value());
  for (const TierMode mode :
       {TierMode::kAuto, TierMode::kAnalytic, TierMode::kCycle}) {
    EXPECT_EQ(parse_tier_mode(to_string(mode)), mode);
  }
}

// ---------------------------------------------------------------------------
// Escalation policy (interval pruning + oracle demand + cap).
// ---------------------------------------------------------------------------

TierEstimate band(double lower, double upper) {
  TierEstimate estimate;
  estimate.designed_lower_seconds = lower;
  estimate.designed_upper_seconds = upper;
  return estimate;
}

TEST(SelectEscalations, PrunesBandsAboveTheBestUpperBound) {
  const TierEstimate winner = band(1.0, 2.0);
  const TierEstimate contender = band(1.5, 5.0);  // Reaches below 2.0.
  const TierEstimate pruned = band(3.0, 9.0);     // Provably worse.
  const std::vector<const TierEstimate*> estimates{&winner, &contender,
                                                   &pruned};
  const std::vector<bool> demands(3, false);
  const auto reasons = select_escalations(estimates, demands);
  EXPECT_EQ(reasons[0], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[1], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[2], EscalationReason::kNone);
}

TEST(SelectEscalations, OracleDemandTrumpsRanking) {
  const TierEstimate winner = band(1.0, 2.0);
  const TierEstimate pruned = band(3.0, 9.0);
  const std::vector<const TierEstimate*> estimates{&winner, &pruned};
  const std::vector<bool> demands{false, true};
  const auto reasons = select_escalations(estimates, demands);
  EXPECT_EQ(reasons[0], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[1], EscalationReason::kOracle);
}

TEST(SelectEscalations, CapKeepsTheLowestLowerBounds) {
  const TierEstimate a = band(0.5, 10.0);
  const TierEstimate b = band(0.2, 10.0);
  const TierEstimate c = band(0.9, 10.0);
  const std::vector<const TierEstimate*> estimates{&a, &b, &c};
  const std::vector<bool> demands(3, false);
  std::uint64_t contenders = 0;
  const auto reasons = select_escalations(estimates, demands, 2, &contenders);
  EXPECT_EQ(reasons[0], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[1], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[2], EscalationReason::kNone);  // Capped out.
  EXPECT_EQ(contenders, 3U);  // Reported before the cap.
}

TEST(SelectEscalations, NullEstimatesNeverEscalateByRank) {
  const TierEstimate winner = band(1.0, 2.0);
  const std::vector<const TierEstimate*> estimates{&winner, nullptr};
  const auto reasons =
      select_escalations(estimates, std::vector<bool>(2, false));
  EXPECT_EQ(reasons[0], EscalationReason::kRankOverlap);
  EXPECT_EQ(reasons[1], EscalationReason::kNone);
}

// ---------------------------------------------------------------------------
// Congruence signatures and the cache.
// ---------------------------------------------------------------------------

TEST(Congruence, KeyIsStableAndThetaSensitive) {
  const apps::SyntheticConfig config =
      dse::sample_config(dse::SweepSpace{}, 11, 0);
  TieredEvaluator evaluator;
  const AnalyticCase a = evaluator.analyze(config);
  const AnalyticCase b = evaluator.analyze(config);
  ASSERT_NE(a.estimate.congruence_key, 0u);
  EXPECT_EQ(a.estimate.congruence_key, b.estimate.congruence_key);
  // Re-analyzing the identical config is exactly what the cache is for.
  EXPECT_GE(evaluator.cache().hits(), 1u);

  const std::string signature = congruence_signature(
      a.schedule, a.proposed, evaluator.theta_seconds_per_byte());
  EXPECT_EQ(congruence_key_of(signature), a.estimate.congruence_key);
  const std::string other_theta = congruence_signature(
      a.schedule, a.proposed, evaluator.theta_seconds_per_byte() * 2.0);
  EXPECT_NE(congruence_key_of(other_theta),
            a.estimate.congruence_key);
}

TEST(Congruence, DistinctDesignsGetDistinctKeys) {
  TieredEvaluator evaluator;
  const AnalyticCase a =
      evaluator.analyze(dse::sample_config(dse::SweepSpace{}, 11, 1));
  const AnalyticCase b =
      evaluator.analyze(dse::sample_config(dse::SweepSpace{}, 11, 2));
  EXPECT_NE(a.estimate.congruence_key, b.estimate.congruence_key);
}

/// The signature's bytes, not just its keys, are pinned: the recorded
/// digest covers the proposed and NoC-only designs of the first 200
/// sampled configs of campaign seed 1, and every candidate one seeded
/// search (the serve defaults: 2 restarts x 60 iterations) hands to its
/// legality gate. Between them they include designs without a NoC and
/// with duplicated kernels, streamed edges and shared memories.
TEST(Congruence, SignatureBytesMatchRecordedDigest) {
  constexpr std::uint64_t kRecordedDigest = 12976740905406484754ULL;
  constexpr std::size_t kRecordedCount = 523;
  std::string record;
  std::size_t count = 0;
  std::size_t without_noc = 0;
  std::size_t duplicated = 0;
  std::size_t streamed = 0;
  std::size_t shared = 0;
  const auto add = [&](const sys::AppSchedule& schedule,
                       const core::DesignResult& design, double theta) {
    record += congruence_signature(schedule, design, theta);
    record += '\n';
    ++count;
    without_noc += design.noc.has_value() ? 0u : 1u;
    duplicated += design.parallel.duplicated_specs.empty() ? 0u : 1u;
    streamed += design.parallel.streamed.empty() ? 0u : 1u;
    shared += design.shared_pairs.empty() ? 0u : 1u;
  };
  TieredEvaluator evaluator;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const AnalyticCase c =
        evaluator.analyze(dse::sample_config(dse::SweepSpace{}, 1, i));
    add(c.schedule, c.proposed, c.theta_seconds_per_byte);
    add(c.schedule, c.noc_only, c.theta_seconds_per_byte);
  }
  const AnalyticCase searched =
      evaluator.analyze(dse::sample_config(dse::SweepSpace{}, 1, 0));
  const core::DesignInput input =
      sys::make_design_input(searched.schedule, evaluator.platform());
  search::AnnealOptions options;
  options.restarts = 2;
  options.iterations = 60;
  options.gate = [&](const sys::AppSchedule& schedule,
                     const core::DesignResult& design) {
    add(schedule, design, input.theta.seconds_per_byte);
    return search::default_gate(schedule, design);
  };
  (void)search::anneal_interconnect(searched.schedule, input,
                                    evaluator.platform(), options);
  EXPECT_GT(without_noc, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(streamed, 0u);
  EXPECT_GT(shared, 0u);
  EXPECT_EQ(count, kRecordedCount);
  EXPECT_EQ(util::fnv1a64(record), kRecordedDigest);
}

TEST(Congruence, CacheComputesOncePerKey) {
  CongruenceCache cache;
  int calls = 0;
  const auto make = [&calls] {
    ++calls;
    TierEstimate estimate;
    estimate.designed_kernel_seconds = 1.0;
    return estimate;
  };
  (void)cache.get(42, make);
  const TierEstimate cached = cache.get(42, make);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cached.congruence_key, 42u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Property: the analytic band contains the cycle-accurate result.
// ---------------------------------------------------------------------------

TEST(TierBand, ContainsCycleResultForSampledDesigns) {
  TieredEvaluator evaluator;
  for (std::uint64_t index = 0; index < 12; ++index) {
    const apps::SyntheticConfig config =
        dse::sample_config(dse::SweepSpace{}, 29, index);
    const dse::DesignCase c = dse::run_design_case(config);
    const TierEstimate estimate =
        evaluator.estimate(c.schedule, c.exp.proposed_design);
    const double designed = c.exp.proposed.kernel_seconds();
    const double baseline = c.exp.baseline.kernel_seconds();
    EXPECT_TRUE(estimate.contains_designed(designed))
        << "design " << index << ": measured " << designed
        << " outside [" << estimate.designed_lower_seconds << ", "
        << estimate.designed_upper_seconds << "]";
    EXPECT_TRUE(estimate.contains_baseline(baseline))
        << "design " << index << ": baseline " << baseline
        << " outside [" << estimate.baseline_lower_seconds << ", "
        << estimate.baseline_upper_seconds << "]";
  }
}

TEST(TierBand, AnalyzeAgreesWithTheCyclePipelineDesign) {
  // The analytic tier must run the same Algorithm 1 the cycle pipeline
  // runs: same solution tag, same estimate inputs.
  TieredEvaluator evaluator;
  const apps::SyntheticConfig config =
      dse::sample_config(dse::SweepSpace{}, 29, 3);
  const AnalyticCase analytic = evaluator.analyze(config);
  const dse::DesignCase cycle = dse::run_design_case(config);
  EXPECT_EQ(analytic.proposed.solution_tag(),
            cycle.exp.proposed_design.solution_tag());
  EXPECT_EQ(analytic.estimate.congruence_key,
            evaluator
                .estimate(cycle.schedule, cycle.exp.proposed_design)
                .congruence_key);
}

// ---------------------------------------------------------------------------
// Property: the tier record is byte-identical at any thread count, and
// auto-mode escalated rows match their cycle-mode counterparts.
// ---------------------------------------------------------------------------

dse::CampaignOptions small_campaign(TierMode tier, std::size_t threads) {
  dse::CampaignOptions options;
  options.count = 8;
  options.campaign_seed = 3;
  options.threads = threads;
  options.space.max_kernels = 5;
  options.max_shrinks = 0;
  options.tier = tier;
  return options;
}

TEST(TierCampaign, TierRecordIsThreadCountInvariant) {
  const dse::CampaignResult one =
      dse::run_campaign(small_campaign(TierMode::kAuto, 1));
  const dse::CampaignResult four =
      dse::run_campaign(small_campaign(TierMode::kAuto, 4));
  EXPECT_EQ(dse::campaign_csv(one), dse::campaign_csv(four));
  EXPECT_EQ(dse::campaign_markdown(one, small_campaign(TierMode::kAuto, 1)),
            dse::campaign_markdown(four, small_campaign(TierMode::kAuto, 4)));
  EXPECT_EQ(one.tier_stats.cycle_evals, four.tier_stats.cycle_evals);
  EXPECT_EQ(one.tier_stats.escalated_rank, four.tier_stats.escalated_rank);
  EXPECT_EQ(one.tier_stats.distinct_signatures,
            four.tier_stats.distinct_signatures);
}

/// Split a campaign CSV into lines for row-level comparison.
std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in{csv};
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(TierCampaign, EscalatedAutoRowsMatchCycleRowsExactly) {
  const dse::CampaignResult auto_run =
      dse::run_campaign(small_campaign(TierMode::kAuto, 2));
  const dse::CampaignResult cycle_run =
      dse::run_campaign(small_campaign(TierMode::kCycle, 2));
  ASSERT_EQ(auto_run.cases.size(), cycle_run.cases.size());
  const std::vector<std::string> auto_lines =
      csv_lines(dse::campaign_csv(auto_run));
  const std::vector<std::string> cycle_lines =
      csv_lines(dse::campaign_csv(cycle_run));
  ASSERT_EQ(auto_lines.size(), cycle_lines.size());

  std::uint64_t escalated = 0;
  for (std::size_t i = 0; i < auto_run.cases.size(); ++i) {
    if (!auto_run.cases[i].simulated) {
      continue;
    }
    ++escalated;
    // Same jobs, same seeds: the whole CSV row must match except the
    // escalation-reason column ("rank-overlap"/"oracle" vs "requested").
    std::string auto_row = auto_lines[i + 1];
    std::string cycle_row = cycle_lines[i + 1];
    const auto scrub = [](std::string& row, const std::string& reason) {
      const auto at = row.find("," + reason + ",");
      ASSERT_NE(at, std::string::npos) << row;
      row.replace(at + 1, reason.size(), "escalated");
    };
    scrub(auto_row, to_string(auto_run.cases[i].escalation));
    scrub(cycle_row, to_string(cycle_run.cases[i].escalation));
    EXPECT_EQ(auto_row, cycle_row) << "index " << i;
    // Oracle verdicts are unchanged by how the row got to the cycle tier.
    ASSERT_EQ(auto_run.cases[i].oracles.size(),
              cycle_run.cases[i].oracles.size());
    for (std::size_t o = 0; o < auto_run.cases[i].oracles.size(); ++o) {
      EXPECT_EQ(auto_run.cases[i].oracles[o].pass,
                cycle_run.cases[i].oracles[o].pass);
    }
  }
  EXPECT_GT(escalated, 0u) << "auto mode escalated nothing";
  EXPECT_EQ(escalated, auto_run.tier_stats.cycle_evals);
}

TEST(TierCampaign, AnalyticModeNeverTouchesTheCycleEngine) {
  const dse::CampaignResult result =
      dse::run_campaign(small_campaign(TierMode::kAnalytic, 2));
  EXPECT_EQ(result.tier_stats.cycle_evals, 0u);
  EXPECT_EQ(result.tier_stats.analytic_evals, result.cases.size());
  for (const dse::CaseOutcome& outcome : result.cases) {
    EXPECT_FALSE(outcome.simulated);
    if (outcome.ran()) {
      ASSERT_TRUE(outcome.analytic.has_value());
      EXPECT_NE(outcome.analytic->congruence_key, 0u);
    }
  }
}

}  // namespace
}  // namespace hybridic::tiers
