// Property-based DSE engine tests: config-space sampling, the invariant
// oracle library over generated designs, the failure shrinker, the JSON
// reproducer round trip, and campaign determinism across thread counts.
//
// The MutationShrink tests drive the whole failure pipeline end to end
// against the deliberately broken mutation oracle: fail -> shrink ->
// serialize -> replay to the same failure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "dse/campaign.hpp"
#include "dse/case_runner.hpp"
#include "dse/oracles.hpp"
#include "dse/reproducer.hpp"
#include "dse/shrinker.hpp"
#include "util/error.hpp"

namespace hybridic::dse {
namespace {

// ---------------------------------------------------------------------------
// Config-space sampling.
// ---------------------------------------------------------------------------

TEST(DseSampling, SamplesStayInsideTheSpace) {
  const SweepSpace space;
  for (std::uint64_t index = 0; index < 64; ++index) {
    const apps::SyntheticConfig config = sample_config(space, 1, index);
    EXPECT_GE(config.kernel_count, space.min_kernels);
    EXPECT_LE(config.kernel_count, space.max_kernels);
    EXPECT_GE(config.kernel_edge_probability, space.min_edge_probability);
    EXPECT_LE(config.kernel_edge_probability, space.max_edge_probability);
    EXPECT_LE(config.min_edge_bytes, config.max_edge_bytes);
    EXPECT_LE(config.min_work_units, config.max_work_units);
    EXPECT_NO_THROW(apps::validate_synthetic_config(config));
  }
}

TEST(DseSampling, DeterministicAndSeedSensitive) {
  const SweepSpace space;
  const apps::SyntheticConfig a = sample_config(space, 1, 5);
  const apps::SyntheticConfig b = sample_config(space, 1, 5);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.kernel_count, b.kernel_count);
  EXPECT_EQ(a.kernel_edge_probability, b.kernel_edge_probability);
  const apps::SyntheticConfig c = sample_config(space, 2, 5);
  const apps::SyntheticConfig d = sample_config(space, 1, 6);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_NE(a.seed, d.seed);
}

// ---------------------------------------------------------------------------
// Oracle library over generated designs.
// ---------------------------------------------------------------------------

TEST(DseOracles, LibraryPassesOnGeneratedDesigns) {
  for (const std::uint64_t index : {0ULL, 3ULL, 7ULL}) {
    const apps::SyntheticConfig config =
        sample_config(SweepSpace{}, 17, index);
    const DesignCase c = run_design_case(config);
    for (const OracleResult& result : run_all_oracles(c)) {
      EXPECT_TRUE(result.pass)
          << "case " << index << " oracle " << result.oracle << ": "
          << result.message;
    }
  }
}

TEST(DseOracles, FindOracleKnowsTheWholeLibraryAndRejectsUnknown) {
  for (const Oracle& oracle : oracle_library()) {
    EXPECT_EQ(find_oracle(oracle.name).name, oracle.name);
  }
  EXPECT_EQ(find_oracle("mutation-nonzero-traffic").name,
            "mutation-nonzero-traffic");
  EXPECT_THROW((void)find_oracle("no-such-oracle"), ConfigError);
}

TEST(DseOracles, MutationOracleFailsOnAnyRealDesign) {
  const DesignCase c = run_design_case(apps::SyntheticConfig{});
  const OracleResult result = mutation_oracle().check(c);
  EXPECT_FALSE(result.pass);
  EXPECT_NE(result.message.find("unique bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------------

TEST(DseShrinker, RefusesAPassingConfig) {
  // The real library passes on this config, so shrinking against a passing
  // oracle must be rejected as caller error.
  EXPECT_THROW((void)shrink(apps::SyntheticConfig{}, oracle_library()[0]),
               ConfigError);
}

TEST(DseShrinker, MinimizesTheMutationFailure) {
  apps::SyntheticConfig start;
  start.seed = 7;
  const ShrinkResult result = shrink(start, mutation_oracle());

  // The failure still reproduces on the shrunk config...
  EXPECT_FALSE(result.failure.pass);
  EXPECT_GT(result.attempts, 0U);
  EXPECT_GT(result.accepted, 0U);
  // ...and the config reached the strategy's floor in every dimension.
  EXPECT_EQ(result.config.kernel_count, 1U);
  EXPECT_EQ(result.config.kernel_edge_probability, 0.0);
  EXPECT_EQ(result.config.max_edge_bytes, 64U);
  EXPECT_EQ(result.config.max_work_units, 64U);
  EXPECT_EQ(result.config.duplicable_probability, 0.0);
  EXPECT_EQ(result.config.streaming_probability, 0.0);
  EXPECT_EQ(result.config.seed, 7U);  // The seed is never shrunk.
}

// ---------------------------------------------------------------------------
// Reproducer JSON round trip and replay.
// ---------------------------------------------------------------------------

TEST(DseReproducer, JsonRoundTripPreservesEveryField) {
  Reproducer r;
  r.oracle = "speedup-direction";
  r.expect = Expectation::kFail;
  r.message = "designed slower, with \"quotes\" and\nnewline";
  r.config.kernel_count = 3;
  r.config.kernel_edge_probability = 0.125;
  r.config.min_edge_bytes = 100;
  r.config.max_edge_bytes = 5000;
  r.config.min_work_units = 10;
  r.config.max_work_units = 999;
  r.config.duplicable_probability = 0.75;
  r.config.streaming_probability = 0.0625;
  r.config.seed = 1234567890123ULL;

  const Reproducer back = parse_reproducer(to_json(r));
  EXPECT_EQ(back.schema, 1);
  EXPECT_EQ(back.oracle, r.oracle);
  EXPECT_EQ(back.expect, r.expect);
  EXPECT_EQ(back.message, r.message);
  EXPECT_EQ(back.config.kernel_count, r.config.kernel_count);
  EXPECT_EQ(back.config.kernel_edge_probability,
            r.config.kernel_edge_probability);
  EXPECT_EQ(back.config.min_edge_bytes, r.config.min_edge_bytes);
  EXPECT_EQ(back.config.max_edge_bytes, r.config.max_edge_bytes);
  EXPECT_EQ(back.config.min_work_units, r.config.min_work_units);
  EXPECT_EQ(back.config.max_work_units, r.config.max_work_units);
  EXPECT_EQ(back.config.duplicable_probability,
            r.config.duplicable_probability);
  EXPECT_EQ(back.config.streaming_probability,
            r.config.streaming_probability);
  EXPECT_EQ(back.config.seed, r.config.seed);
}

TEST(DseReproducer, ParserNamesTheProblem) {
  EXPECT_THROW((void)parse_reproducer("{}"), ConfigError);
  EXPECT_THROW((void)parse_reproducer("not json at all"), ConfigError);
  // Unknown config field (typo) is rejected, not ignored.
  Reproducer r;
  r.oracle = "determinism";
  std::string json = to_json(r);
  const std::string needle = "\"seed\"";
  json.replace(json.rfind(needle), needle.size(), "\"sede\"");
  EXPECT_THROW((void)parse_reproducer(json), ConfigError);
  // Bad expect value.
  Reproducer bad;
  bad.oracle = "determinism";
  std::string json2 = to_json(bad);
  const std::string pass = "\"pass\"";
  json2.replace(json2.find(pass), pass.size(), "\"maybe\"");
  EXPECT_THROW((void)parse_reproducer(json2), ConfigError);
}

TEST(DseReproducer, HostileNumbersAndKeysNameTheField) {
  Reproducer r;
  r.oracle = "determinism";
  const std::string json = to_json(r);
  // `json` with the value of the first `key` replaced by `value`.
  const auto with_value = [&json](const std::string& key,
                                  const std::string& value) {
    std::string out = json;
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = out.find(needle) + needle.size();
    return out.replace(at, out.find_first_of(",\n", at) - at, value);
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {with_value("kernel_count", "-1"), "kernel_count"},
      {with_value("kernel_count", "4294967296"), "kernel_count"},
      {with_value("seed", "1e3"), "seed"},
      {with_value("seed", "-"), "seed"},
      {with_value("kernel_count", "1, \"kernel_count\": 2"), "kernel_count"},
      {with_value("oracle", "7"), "oracle"},
  };
  for (const auto& [text, field] : cases) {
    try {
      (void)parse_reproducer(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(DseReproducer, ShrunkMutationFailureReplaysToTheSameFailure) {
  apps::SyntheticConfig start;
  start.seed = 7;
  const ShrinkResult shrunk = shrink(start, mutation_oracle());

  Reproducer r;
  r.oracle = "mutation-nonzero-traffic";
  r.expect = Expectation::kFail;
  r.message = shrunk.failure.message;
  r.config = shrunk.config;

  // Serialize, parse back, replay: the identical failure must reproduce.
  const Reproducer back = parse_reproducer(to_json(r));
  const OracleResult replayed = replay(back);
  EXPECT_FALSE(replayed.pass);
  EXPECT_EQ(replayed.message, shrunk.failure.message);
}

// ---------------------------------------------------------------------------
// Campaign.
// ---------------------------------------------------------------------------

TEST(DseCampaign, SmallCampaignPassesAndIsThreadCountInvariant) {
  CampaignOptions options;
  options.count = 6;
  options.campaign_seed = 3;
  options.space.max_kernels = 5;

  options.threads = 1;
  const CampaignResult serial = run_campaign(options);
  options.threads = 4;
  const CampaignResult parallel = run_campaign(options);

  ASSERT_EQ(serial.cases.size(), 6U);
  EXPECT_EQ(serial.error_count(), 0U);
  for (const CaseOutcome& outcome : serial.cases) {
    EXPECT_TRUE(outcome.all_pass()) << "case " << outcome.index;
  }
  // Byte-identical outcome regardless of thread count.
  EXPECT_EQ(campaign_csv(serial), campaign_csv(parallel));
  EXPECT_EQ(campaign_markdown(serial, options),
            campaign_markdown(parallel, options));
  EXPECT_TRUE(serial.reproducers.empty());
}

TEST(DseCampaign, CsvCarriesOneColumnPerOracle) {
  CampaignOptions options;
  options.count = 1;
  options.space.max_kernels = 3;
  const CampaignResult result = run_campaign(options);
  const std::string csv = campaign_csv(result);
  const std::string header = csv.substr(0, csv.find('\n'));
  for (const Oracle& oracle : oracle_library()) {
    EXPECT_NE(header.find(oracle.name), std::string::npos)
        << "missing column: " << oracle.name;
  }
  EXPECT_EQ(header.find("mutation"), std::string::npos);
}

TEST(DseCampaign, SaveReproducersWritesReplayableFiles) {
  CampaignResult result;
  Reproducer r;
  r.oracle = "mutation-nonzero-traffic";
  r.expect = Expectation::kFail;
  r.message = "pinned";
  r.config.kernel_count = 1;
  r.config.kernel_edge_probability = 0.0;
  result.reproducers.push_back(r);

  const std::string dir = ::testing::TempDir() + "dse_repro";
  const std::vector<std::string> paths = save_reproducers(result, dir);
  ASSERT_EQ(paths.size(), 1U);
  const Reproducer loaded = load_reproducer(paths[0]);
  EXPECT_EQ(loaded.oracle, r.oracle);
  EXPECT_EQ(loaded.config.kernel_count, 1U);
}

}  // namespace
}  // namespace hybridic::dse
