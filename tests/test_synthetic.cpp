#include "apps/synthetic.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/interconnect_design.hpp"
#include "sys/experiment.hpp"
#include "util/error.hpp"

namespace hybridic::apps {
namespace {

TEST(Synthetic, ProducesExpectedFunctionCount) {
  SyntheticConfig config;
  config.kernel_count = 5;
  const ProfiledApp app = make_synthetic_app(config);
  // source + 5 kernels + sink.
  EXPECT_EQ(app.graph().function_count(), 7U);
  EXPECT_EQ(app.schedule().specs.size(), 5U);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticConfig config;
  config.seed = 42;
  const ProfiledApp a = make_synthetic_app(config);
  const ProfiledApp b = make_synthetic_app(config);
  const auto ea = a.graph().edges();
  const auto eb = b.graph().edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].bytes, eb[i].bytes);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticConfig a;
  a.seed = 1;
  SyntheticConfig b;
  b.seed = 2;
  const auto ea = make_synthetic_app(a).graph().edges();
  const auto eb = make_synthetic_app(b).graph().edges();
  bool differ = ea.size() != eb.size();
  for (std::size_t i = 0; !differ && i < ea.size(); ++i) {
    differ = ea[i].bytes != eb[i].bytes;
  }
  EXPECT_TRUE(differ);
}

TEST(Synthetic, GraphIsAcyclicByConstruction) {
  SyntheticConfig config;
  config.kernel_count = 8;
  config.seed = 5;
  const ProfiledApp app = make_synthetic_app(config);
  // Kernel i only feeds kernels j > i (and the sink).
  for (const prof::CommEdge& edge : app.graph().edges()) {
    if (edge.producer != edge.consumer) {
      EXPECT_LT(edge.producer, edge.consumer);
    }
  }
}

TEST(Synthetic, EveryKernelHasInput) {
  for (std::uint64_t seed : {1ULL, 9ULL, 77ULL}) {
    SyntheticConfig config;
    config.seed = seed;
    config.kernel_count = 6;
    const ProfiledApp app = make_synthetic_app(config);
    const prof::CommGraph& g = app.graph();
    for (std::uint32_t k = 0; k < 6; ++k) {
      const auto id = g.id_of("kernel" + std::to_string(k));
      EXPECT_GT(g.total_in(id).count(), 0U) << "seed " << seed;
      EXPECT_GT(g.total_out(id).count(), 0U) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Config validation: every rejection names the offending field.
// ---------------------------------------------------------------------------

/// Runs both entry points (the standalone validator and the generator)
/// and checks the ConfigError message names the field.
void expect_rejected(const SyntheticConfig& config, const char* field) {
  try {
    validate_synthetic_config(config);
    FAIL() << "expected rejection of " << field;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)make_synthetic_app(config), ConfigError);
}

TEST(SyntheticConfigValidation, AcceptsTheDefaultConfig) {
  EXPECT_NO_THROW(validate_synthetic_config(SyntheticConfig{}));
}

TEST(SyntheticConfigValidation, RejectsZeroKernels) {
  SyntheticConfig config;
  config.kernel_count = 0;
  expect_rejected(config, "kernel_count");
}

TEST(SyntheticConfigValidation, RejectsZeroMinEdgeBytes) {
  SyntheticConfig config;
  config.min_edge_bytes = 0;
  expect_rejected(config, "min_edge_bytes");
}

TEST(SyntheticConfigValidation, RejectsInvertedEdgeByteRange) {
  SyntheticConfig config;
  config.min_edge_bytes = 4096;
  config.max_edge_bytes = 1024;
  expect_rejected(config, "min_edge_bytes");
}

TEST(SyntheticConfigValidation, RejectsEdgesPastTheFixedBound) {
  SyntheticConfig config;
  config.min_edge_bytes = 1'000'000'000'000;
  config.max_edge_bytes = 1'000'000'000'000;
  expect_rejected(config, "max_edge_bytes");

  config = SyntheticConfig{};
  config.max_edge_bytes = kMaxEdgeBytes + 1;
  expect_rejected(config, "max_edge_bytes");

  config.max_edge_bytes = kMaxEdgeBytes;
  EXPECT_NO_THROW(validate_synthetic_config(config));
}

TEST(SyntheticConfigValidation, RejectsInvertedWorkUnitRange) {
  SyntheticConfig config;
  config.min_work_units = 100;
  config.max_work_units = 10;
  expect_rejected(config, "min_work_units");
}

TEST(SyntheticConfigValidation, RejectsOutOfRangeProbabilities) {
  SyntheticConfig config;
  config.kernel_edge_probability = 1.5;
  expect_rejected(config, "kernel_edge_probability");

  config = SyntheticConfig{};
  config.duplicable_probability = -0.1;
  expect_rejected(config, "duplicable_probability");

  config = SyntheticConfig{};
  config.streaming_probability = 2.0;
  expect_rejected(config, "streaming_probability");
}

/// Full-pipeline property sweep over synthetic shapes.
class SyntheticPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticPipeline, ExperimentCompletesAndOrdersHold) {
  SyntheticConfig config;
  config.seed = GetParam();
  config.kernel_count = 4 + GetParam() % 4;
  const ProfiledApp app = make_synthetic_app(config);
  const sys::AppSchedule schedule = app.schedule();
  const sys::AppExperiment exp = sys::run_experiment(
      schedule, sys::PlatformConfig{}, app.environment);

  EXPECT_GT(exp.sw.total_seconds, 0.0);
  EXPECT_GT(exp.baseline.total_seconds, 0.0);
  EXPECT_LE(exp.proposed.total_seconds,
            exp.baseline.total_seconds * 1.02);
  EXPECT_LE(exp.proposed_resources.luts, exp.noc_only_resources.luts);
  EXPECT_LT(exp.baseline_resources.luts, exp.proposed_resources.luts + 1);
  EXPECT_GT(exp.proposed_energy_joules, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticPipeline,
                         ::testing::Values(2, 4, 6, 11, 19, 29, 41));

}  // namespace
}  // namespace hybridic::apps
