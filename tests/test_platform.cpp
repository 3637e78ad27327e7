// Platform assembly: the bus theta and the per-design fabrics.
#include <gtest/gtest.h>

#include "core/interconnect_design.hpp"
#include "sys/experiment.hpp"
#include "sys/platform.hpp"

namespace hybridic {
namespace {

TEST(Platform, MeasuredThetaMatchesSingleBeatModel) {
  const sys::PlatformConfig config;  // 32-bit single-beat PLB.
  // arb 2 + per word (1 addr + 1 beat): (2 + 2*1024) cycles over 4096 B.
  const double expected = (2.0 + 2.0 * 1024.0) * 10e-9 / 4096.0;
  EXPECT_NEAR(sys::bus_theta(config), expected, 1e-12);
}

TEST(Platform, NoNetworkWithoutDesign) {
  sys::Platform platform(sys::PlatformConfig{}, 3, nullptr);
  EXPECT_EQ(platform.network(), nullptr);
  EXPECT_FALSE(
      platform.noc_node(0, core::NocNodeKind::kKernel).has_value());
  EXPECT_THROW((void)platform.bram(3), ConfigError);
  (void)platform.bram(2);
}

TEST(Platform, BuildsNetworkFromDesignPlan) {
  // A small design with a 2x1 NoC.
  core::DesignResult design;
  core::KernelInstance producer;
  producer.name = "p";
  core::KernelInstance consumer;
  consumer.name = "c";
  design.instances = {producer, consumer};
  core::NocPlan plan;
  plan.mesh_width = 2;
  plan.mesh_height = 1;
  plan.attachments = {
      core::NocAttachment{0, core::NocNodeKind::kKernel, 0},
      core::NocAttachment{1, core::NocNodeKind::kLocalMemory, 1},
  };
  design.noc = plan;

  sys::Platform platform(sys::PlatformConfig{}, 2, &design);
  ASSERT_NE(platform.network(), nullptr);
  EXPECT_EQ(*platform.noc_node(0, core::NocNodeKind::kKernel), 0U);
  EXPECT_EQ(*platform.noc_node(1, core::NocNodeKind::kLocalMemory), 1U);
  EXPECT_FALSE(
      platform.noc_node(0, core::NocNodeKind::kLocalMemory).has_value());

  // The network is live: a send completes.
  bool delivered = false;
  platform.network()->send(0, 1, Bytes{64},
                           [&delivered](std::uint64_t, Bytes,
                                        Picoseconds) { delivered = true; });
  platform.engine().run();
  EXPECT_TRUE(delivered);
}

TEST(Platform, ClockDomainsMatchConfig) {
  sys::PlatformConfig config;
  config.host_clock = Frequency::megahertz(200);
  sys::Platform platform(config, 1, nullptr);
  EXPECT_EQ(platform.host_clock().frequency().hertz(), 200'000'000U);
  EXPECT_EQ(platform.kernel_clock().frequency().hertz(), 100'000'000U);
}

}  // namespace
}  // namespace hybridic
