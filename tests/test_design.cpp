// Tests of Algorithm 1 (the interconnect designer) on hand-crafted
// communication graphs plus property checks on generated applications.
#include "core/interconnect_design.hpp"

#include <gtest/gtest.h>

#include <set>

#include "apps/synthetic.hpp"
#include "util/error.hpp"

namespace hybridic::core {
namespace {

/// Builder for small design scenarios.
class Scenario {
public:
  prof::FunctionId host(const std::string& name) {
    return graph_.add_function(name);
  }

  prof::FunctionId kernel(const std::string& name, std::uint64_t hw_cycles,
                          bool duplicable = false, bool streaming = false) {
    const prof::FunctionId id = graph_.add_function(name);
    KernelSpec spec;
    spec.name = name;
    spec.function = id;
    spec.hw_compute_cycles = Cycles{hw_cycles};
    spec.sw_compute_cycles = Cycles{hw_cycles * 8};
    spec.area_luts = 1000;
    spec.area_regs = 1000;
    spec.duplicable = duplicable;
    spec.streaming = streaming;
    kernels_.push_back(spec);
    return id;
  }

  void edge(prof::FunctionId a, prof::FunctionId b, std::uint64_t bytes) {
    graph_.add_transfer(a, b, Bytes{bytes}, bytes);
  }

  [[nodiscard]] DesignInput input() const {
    DesignInput in;
    in.graph = &graph_;
    in.kernels = kernels_;
    in.theta.seconds_per_byte = 10e-9;
    return in;
  }

private:
  prof::CommGraph graph_;
  std::vector<KernelSpec> kernels_;
};

TEST(Design, ExclusivePairGetsSharedMemory) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  s.edge(h, k1, 1000);
  s.edge(k1, k2, 5000);
  s.edge(k2, h, 500);

  const DesignResult result = design_interconnect(s.input());
  ASSERT_EQ(result.shared_pairs.size(), 1U);
  EXPECT_EQ(result.instances[result.shared_pairs[0].producer_instance]
                .function,
            k1);
  EXPECT_EQ(result.instances[result.shared_pairs[0].consumer_instance]
                .function,
            k2);
  EXPECT_EQ(result.shared_pairs[0].bytes.count(), 5000U);
  // Consumer k2 talks to the host -> crossbar style.
  EXPECT_EQ(result.shared_pairs[0].style, mem::SharingStyle::kCrossbar);
  // All kernel-kernel traffic handled -> no NoC.
  EXPECT_FALSE(result.uses_noc());
  EXPECT_EQ(result.solution_tag(), "SM");
}

TEST(Design, HostFreeConsumerSharesDirectly) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  const auto k3 = s.kernel("k3", 10'000);
  s.edge(h, k1, 100);
  s.edge(k1, k2, 5000);
  s.edge(k2, k3, 4000);  // k2's only output goes to k3...
  s.edge(k3, h, 100);
  // k1 -> k2 is exclusive and k2 never touches the host: direct sharing.
  const DesignResult result = design_interconnect(s.input());
  ASSERT_FALSE(result.shared_pairs.empty());
  const SharedMemoryPairing& pair = result.shared_pairs.front();
  EXPECT_EQ(result.instances[pair.producer_instance].function, k1);
  EXPECT_EQ(pair.style, mem::SharingStyle::kDirect);
}

TEST(Design, NonExclusiveProducerCannotShare) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  const auto k3 = s.kernel("k3", 10'000);
  s.edge(h, k1, 100);
  s.edge(k1, k2, 5000);
  s.edge(k1, k3, 3000);  // k1 fans out: no exclusivity with k2.
  s.edge(k2, h, 100);
  s.edge(k3, h, 100);
  const DesignResult result = design_interconnect(s.input());
  EXPECT_TRUE(result.shared_pairs.empty());
  ASSERT_TRUE(result.uses_noc());
  // k1 must be on the NoC; k2 and k3 memories must be reachable.
  const NocPlan& plan = *result.noc;
  EXPECT_TRUE(plan.has_node(0, NocNodeKind::kKernel));
  EXPECT_TRUE(plan.has_node(1, NocNodeKind::kLocalMemory));
  EXPECT_TRUE(plan.has_node(2, NocNodeKind::kLocalMemory));
}

TEST(Design, MappingFollowsTableOne) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  const auto k3 = s.kernel("k3", 10'000);
  s.edge(h, k1, 100);
  s.edge(k1, k2, 5000);
  s.edge(k1, k3, 3000);
  s.edge(k2, h, 100);
  s.edge(k3, h, 100);
  const DesignResult result = design_interconnect(s.input());
  // k1: {R2,S1} -> {K2,M1}; k2/k3: {R1,S2} -> {K1,M3}.
  EXPECT_EQ(result.instances[0].comm_class,
            (CommClass{RecvClass::kR2, SendClass::kS1}));
  EXPECT_EQ(result.instances[0].mapping,
            (InterconnectClass{KernelConn::kK2, MemConn::kM1}));
  EXPECT_EQ(result.instances[1].mapping,
            (InterconnectClass{KernelConn::kK1, MemConn::kM3}));
  EXPECT_EQ(result.instances[2].mapping,
            (InterconnectClass{KernelConn::kK1, MemConn::kM3}));
}

TEST(Design, DuplicationRequiresFlagBudgetAndPositiveDelta) {
  Scenario s;
  const auto h = s.host("host");
  // 10 ms kernel: Δdp clearly positive.
  const auto big = s.kernel("big", 1'000'000, /*duplicable=*/true);
  (void)s.kernel("small", 100, /*duplicable=*/true);
  const auto other = s.kernel("other", 500'000, /*duplicable=*/false);
  s.edge(h, big, 1000);
  s.edge(big, other, 1000);
  s.edge(other, h, 1000);

  DesignInput in = s.input();
  in.duplication_overhead_seconds = 10e-6;
  const DesignResult result = design_interconnect(in);
  // big duplicated (two instances); small not (Δdp = 0.5us - 10us < 0);
  // other not (flag off).
  EXPECT_EQ(result.parallel.duplicated_specs,
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(result.instances.size(), 4U);
  EXPECT_DOUBLE_EQ(result.instances[0].work_share, 0.5);
  EXPECT_DOUBLE_EQ(result.instances[1].work_share, 0.5);

  // With no area budget, nothing duplicates.
  in.duplication_area_budget_luts = 0;
  const DesignResult no_budget = design_interconnect(in);
  EXPECT_TRUE(no_budget.parallel.duplicated_specs.empty());

  // With the switch off, nothing duplicates either.
  in.duplication_area_budget_luts = 100'000;
  in.enable_duplication = false;
  EXPECT_TRUE(design_interconnect(in).parallel.duplicated_specs.empty());
}

TEST(Design, DuplicatedKernelsCannotSharePairs) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 1'000'000, /*duplicable=*/true);
  const auto k2 = s.kernel("k2", 10'000);
  s.edge(h, k1, 1000);
  s.edge(k1, k2, 5000);  // Exclusive, but k1 is duplicated.
  s.edge(k2, h, 100);
  const DesignResult result = design_interconnect(s.input());
  EXPECT_FALSE(result.parallel.duplicated_specs.empty());
  EXPECT_TRUE(result.shared_pairs.empty());
  EXPECT_TRUE(result.uses_noc());
}

TEST(Design, StreamingEnablesCase1And2) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 1'000'000, false, /*streaming=*/true);
  const auto k2 = s.kernel("k2", 1'000'000, false, /*streaming=*/true);
  s.edge(h, k1, 500'000);  // Big host input: case 1 worthwhile.
  s.edge(k1, k2, 5000);
  s.edge(k2, h, 500'000);
  const DesignResult result = design_interconnect(s.input());
  EXPECT_FALSE(result.parallel.host_pipelined.empty());
  EXPECT_FALSE(result.parallel.streamed.empty());
  EXPECT_TRUE(result.uses_parallel());

  DesignInput off = s.input();
  off.enable_parallel = false;
  const DesignResult plain = design_interconnect(off);
  EXPECT_TRUE(plain.parallel.host_pipelined.empty());
  EXPECT_TRUE(plain.parallel.streamed.empty());
}

TEST(Design, NocOnlyModeAttachesEverything) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  s.edge(h, k1, 1000);
  s.edge(k1, k2, 5000);
  s.edge(k2, h, 500);

  DesignInput in = s.input();
  in.enable_shared_memory = false;
  in.enable_adaptive_mapping = false;
  const DesignResult result = design_interconnect(in);
  EXPECT_TRUE(result.shared_pairs.empty());
  ASSERT_TRUE(result.uses_noc());
  // Naive mapping: every kernel and every memory joins the NoC.
  EXPECT_EQ(result.noc->router_count(), 4U);
  for (const KernelInstance& inst : result.instances) {
    EXPECT_EQ(inst.mapping,
              (InterconnectClass{KernelConn::kK2, MemConn::kM3}));
  }
}

TEST(Design, NoKernelCommunicationMeansNoNoc) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  s.edge(h, k1, 1000);
  s.edge(h, k2, 1000);
  s.edge(k1, h, 1000);
  s.edge(k2, h, 1000);
  const DesignResult result = design_interconnect(s.input());
  EXPECT_FALSE(result.uses_noc());
  EXPECT_TRUE(result.shared_pairs.empty());
  EXPECT_EQ(result.instances[0].mapping,
            (InterconnectClass{KernelConn::kK1, MemConn::kM1}));
}

TEST(Design, EstimateReflectsDeltas) {
  Scenario s;
  const auto h = s.host("host");
  const auto k1 = s.kernel("k1", 10'000);
  const auto k2 = s.kernel("k2", 10'000);
  s.edge(h, k1, 1000);
  s.edge(k1, k2, 5000);
  s.edge(k2, h, 500);
  const DesignResult result = design_interconnect(s.input());
  EXPECT_GT(result.estimate.baseline_seconds, 0.0);
  EXPECT_GT(result.estimate.delta_shared_memory_seconds, 0.0);
  EXPECT_LT(result.estimate.proposed_seconds(),
            result.estimate.baseline_seconds);
}

TEST(Design, InvalidInputRejected) {
  DesignInput empty;
  EXPECT_THROW((void)design_interconnect(empty), ConfigError);
  prof::CommGraph graph;
  empty.graph = &graph;
  EXPECT_THROW((void)design_interconnect(empty), ConfigError);
}

/// Property checks over synthetic applications.
class DesignProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesignProperties, InvariantsHold) {
  apps::SyntheticConfig config;
  config.seed = GetParam();
  config.kernel_count = 7;
  const apps::ProfiledApp app = apps::make_synthetic_app(config);
  const sys::AppSchedule schedule = app.schedule();

  DesignInput in;
  in.graph = schedule.graph;
  in.kernels = schedule.specs;
  in.theta.seconds_per_byte = 10e-9;
  const DesignResult result = design_interconnect(in);

  // 1. Every mapping is feasible.
  for (const KernelInstance& inst : result.instances) {
    EXPECT_TRUE(is_feasible(inst.mapping));
  }
  // 2. No kernel participates in two shared pairs.
  std::set<std::size_t> paired;
  for (const SharedMemoryPairing& pair : result.shared_pairs) {
    EXPECT_TRUE(paired.insert(pair.producer_instance).second);
    EXPECT_TRUE(paired.insert(pair.consumer_instance).second);
  }
  // 3. NoC attachments reference valid instances and distinct nodes.
  if (result.uses_noc()) {
    std::set<std::uint32_t> nodes;
    for (const NocAttachment& a : result.noc->attachments) {
      EXPECT_LT(a.instance, result.instances.size());
      EXPECT_TRUE(nodes.insert(a.node).second);
      EXPECT_LT(a.node, result.noc->mesh_width * result.noc->mesh_height);
    }
    // 4. Router count is bounded by kernels + memories.
    EXPECT_LE(result.noc->router_count(), 2 * result.instances.size());
  }
  // 5. The estimate never goes negative.
  EXPECT_GE(result.estimate.proposed_seconds(), 0.0);
  EXPECT_LE(result.estimate.proposed_seconds(),
            result.estimate.baseline_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesignProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hybridic::core
