#include <gtest/gtest.h>

#include "core/energy_model.hpp"
#include "core/interconnect_design.hpp"
#include "core/resource_model.hpp"

namespace hybridic::core {
namespace {

TEST(ComponentCosts, MatchPaperTableTwo) {
  EXPECT_EQ(component_cost(Component::kBus).luts, 1048U);
  EXPECT_EQ(component_cost(Component::kBus).regs, 188U);
  EXPECT_DOUBLE_EQ(component_cost(Component::kBus).fmax_mhz, 345.8);

  EXPECT_EQ(component_cost(Component::kCrossbar).luts, 201U);
  EXPECT_EQ(component_cost(Component::kCrossbar).regs, 200U);

  EXPECT_EQ(component_cost(Component::kRouter).luts, 309U);
  EXPECT_EQ(component_cost(Component::kRouter).regs, 353U);
  EXPECT_DOUBLE_EQ(component_cost(Component::kRouter).fmax_mhz, 150.0);

  EXPECT_EQ(component_cost(Component::kNaAccelerator).luts, 396U);
  EXPECT_EQ(component_cost(Component::kNaAccelerator).regs, 426U);

  EXPECT_EQ(component_cost(Component::kNaLocalMemory).luts, 60U);
  EXPECT_EQ(component_cost(Component::kNaLocalMemory).regs, 114U);
}

TEST(ComponentCosts, PaperClaimFourRoutersVsSharedMemory) {
  // §IV-B: "HW resources usage for four routers is ~5x larger than the
  // shared local memory solution" — our Table II numbers reproduce that.
  const std::uint64_t four_routers = 4 * component_cost(Component::kRouter).luts;
  const std::uint64_t shared = component_cost(Component::kCrossbar).luts;
  EXPECT_GE(four_routers, 5 * shared);
}

TEST(ComponentCosts, Names) {
  EXPECT_EQ(to_string(Component::kRouter), "NoC Router");
  EXPECT_EQ(to_string(Component::kNaLocalMemory), "NA local memory");
}

TEST(Resources, Addition) {
  Resources a{100, 200};
  a += Resources{10, 20};
  EXPECT_EQ(a.luts, 110U);
  EXPECT_EQ(a.regs, 220U);
  const Resources b = a + Resources{1, 1};
  EXPECT_EQ(b.luts, 111U);
}

/// A design with one crossbar pair, one direct pair, and a 3-router NoC.
DesignResult make_design() {
  DesignResult design;
  for (int i = 0; i < 6; ++i) {
    KernelInstance inst;
    inst.name = "k";
    inst.name += std::to_string(i);
    inst.spec_index = static_cast<std::size_t>(i);
    inst.mapping = InterconnectClass{KernelConn::kK1, MemConn::kM1};
    design.instances.push_back(inst);
  }
  design.shared_pairs.push_back(
      SharedMemoryPairing{0, 1, Bytes{100}, mem::SharingStyle::kCrossbar});
  design.shared_pairs.push_back(
      SharedMemoryPairing{2, 3, Bytes{100}, mem::SharingStyle::kDirect});
  NocPlan plan;
  plan.mesh_width = 2;
  plan.mesh_height = 2;
  plan.attachments = {
      NocAttachment{4, NocNodeKind::kKernel, 0},
      NocAttachment{5, NocNodeKind::kKernel, 1},
      NocAttachment{5, NocNodeKind::kLocalMemory, 2},
  };
  design.noc = plan;
  design.instances[5].mapping =
      InterconnectClass{KernelConn::kK2, MemConn::kM3};  // needs a mux
  return design;
}

TEST(InterconnectResources, CountsComponents) {
  const DesignResult design = make_design();
  const Resources r = interconnect_resources(design);
  // 1 crossbar + 3 routers + 2 accel NAs + 1 mem NA + 1 mux.
  const std::uint64_t expected_luts = 201 + 3 * 309 + 2 * 396 + 60 + 48;
  EXPECT_EQ(r.luts, expected_luts);
  EXPECT_EQ(mux_count(design), 1U);
}

TEST(InterconnectResources, DirectSharingIsFree) {
  DesignResult design;
  KernelInstance a;
  KernelInstance b;
  design.instances = {a, b};
  design.shared_pairs.push_back(
      SharedMemoryPairing{0, 1, Bytes{10}, mem::SharingStyle::kDirect});
  EXPECT_EQ(interconnect_resources(design).luts, 0U);
}

TEST(KernelResources, DuplicationCountsTwice) {
  std::vector<KernelSpec> specs(1);
  specs[0].area_luts = 500;
  specs[0].area_regs = 700;
  DesignResult design;
  KernelInstance first;
  first.spec_index = 0;
  KernelInstance second = first;
  design.instances = {first, second};
  const Resources r = kernel_resources(design, specs);
  EXPECT_EQ(r.luts, 1000U);
  EXPECT_EQ(r.regs, 1400U);
}

TEST(KernelResources, MissingSpecRejected) {
  DesignResult design;
  KernelInstance inst;
  inst.spec_index = 3;
  design.instances = {inst};
  EXPECT_THROW((void)kernel_resources(design, {}), ConfigError);
}

TEST(EnergyModel, PowerScalesWithResources) {
  const PowerModel model;
  const double small = system_power_watts(Resources{10'000, 12'000}, model);
  const double large = system_power_watts(Resources{20'000, 24'000}, model);
  EXPECT_GT(large, small);
  EXPECT_GT(small, model.static_watts);  // static floor
}

TEST(EnergyModel, StaticPowerDominates) {
  // The paper: "power consumption is almost identical" between systems —
  // i.e. doubling the interconnect logic changes power by only a few %.
  const PowerModel model;
  const double base = system_power_watts(Resources{12'000, 12'000}, model);
  const double plus = system_power_watts(Resources{15'000, 15'000}, model);
  EXPECT_LT((plus - base) / base, 0.10);
}

TEST(EnergyModel, EnergyIsPowerTimesTime) {
  EXPECT_DOUBLE_EQ(energy_joules(2.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(energy_joules(1.5, 0.0), 0.0);
}

TEST(EnergyModel, FasterExecutionSavesEnergyDespiteMorePower) {
  // The paper's core energy argument (Fig. 9).
  const PowerModel model;
  const double p_base = system_power_watts(Resources{11'755, 11'910}, model);
  const double p_ours = system_power_watts(Resources{20'837, 20'900}, model);
  const double e_base = energy_joules(p_base, 1.0);
  const double e_ours = energy_joules(p_ours, 1.0 / 2.87);
  EXPECT_LT(e_ours, e_base);
  EXPECT_LT(e_ours / e_base, 0.45);
}

}  // namespace
}  // namespace hybridic::core
