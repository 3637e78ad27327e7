// NoC stress and fairness tests: hotspot traffic, sustained contention,
// per-flow fairness under the round-robin link arbitration, and
// XY routing under uniform random load.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "util/rng.hpp"

namespace hybridic::noc {
namespace {

const sim::ClockDomain kNocClock{"noc", Frequency::megahertz(150)};

struct Net {
  explicit Net(std::uint32_t dim, NetworkConfig config = {})
      : network("noc", engine, kNocClock, Mesh2D{dim, dim}, config) {
    for (std::uint32_t n = 0; n < dim * dim; ++n) {
      std::string name = "n";
      name += std::to_string(n);
      network.attach_adapter(n, std::move(name), AdapterKind::kAccelerator);
    }
  }
  sim::Engine engine;
  Network network;
};

TEST(NocStress, HotspotSinkReceivesEverything) {
  // All nodes hammer node 0 simultaneously.
  Net net{4};
  const std::uint32_t sink = 0;
  int delivered = 0;
  for (std::uint32_t src = 1; src < 16; ++src) {
    net.network.send(src, sink, Bytes{2048},
                     [&delivered](std::uint64_t, Bytes, Picoseconds) {
                       ++delivered;
                     });
  }
  net.engine.run();
  EXPECT_EQ(delivered, 15);
  // 15 * 2048 B = 15 * 512 payload flits + 15 * 8 heads all ejected at
  // one node.
  EXPECT_GE(net.network.stats().flits_ejected, 15U * 512U);
}

TEST(NocStress, HotspotThroughputBoundedByEjectionLink) {
  // The sink's local port ejects at most one flit per cycle, so total
  // delivery time is at least total_flits cycles.
  Net net{3};
  Picoseconds last{0};
  const std::uint64_t per_message = 4096;
  for (std::uint32_t src = 1; src < 9; ++src) {
    net.network.send(src, 0, Bytes{per_message},
                     [&last](std::uint64_t, Bytes, Picoseconds at) {
                       last = std::max(last, at);
                     });
  }
  net.engine.run();
  const std::uint64_t payload_total = 8 * payload_flits(per_message);
  EXPECT_GE(last.count(), payload_total * kNocClock.period().count());
}

TEST(NocStress, CompetingFlowsShareFairly) {
  // Two long flows cross the same column link; under round-robin grants
  // their completion times should be within ~30% of each other.
  Net net{3};
  // Flows: 1 -> 7 and 2 -> 8 share no link under XY... choose flows that
  // do: 0 -> 8 and 3 -> 8's column? Simplest: both target node 8 and
  // both come from column 2 after X-correction: 0->8 and 1->8.
  std::map<std::uint32_t, Picoseconds> done;
  net.network.send(0, 8, Bytes{8192},
                   [&done](std::uint64_t, Bytes, Picoseconds at) {
                     done[0] = at;
                   });
  net.network.send(1, 8, Bytes{8192},
                   [&done](std::uint64_t, Bytes, Picoseconds at) {
                     done[1] = at;
                   });
  net.engine.run();
  ASSERT_EQ(done.size(), 2U);
  const double a = done[0].seconds();
  const double b = done[1].seconds();
  EXPECT_LT(std::max(a, b) / std::min(a, b), 1.35);
}

TEST(NocStress, DeepPipelineStillDrains) {
  NetworkConfig config;
  config.router.pipeline_cycles = 5;
  Net net{3, config};
  int delivered = 0;
  net.network.send(0, 8, Bytes{1024},
                   [&delivered](std::uint64_t, Bytes, Picoseconds) {
                     ++delivered;
                   });
  net.engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(NocStress, PipelineDepthIncreasesLatency) {
  const auto latency_with = [](std::uint32_t depth) {
    NetworkConfig config;
    config.router.pipeline_cycles = depth;
    Net net{4, config};
    Picoseconds done{0};
    net.network.send(0, 15, Bytes{64},
                     [&done](std::uint64_t, Bytes, Picoseconds at) {
                       done = at;
                     });
    net.engine.run();
    return done;
  };
  EXPECT_LT(latency_with(1), latency_with(4));
}

/// Uniform random load drains under XY routing (the parameter names the
/// routing).
class RoutingUnderLoad : public ::testing::TestWithParam<std::string> {};

TEST_P(RoutingUnderLoad, DrainsUniformRandomTraffic) {
  Net net{4};
  Rng rng{77};
  int expected = 0;
  int delivered = 0;
  for (int m = 0; m < 60; ++m) {
    const auto src = static_cast<std::uint32_t>(rng.below(16));
    auto dst = static_cast<std::uint32_t>(rng.below(16));
    if (src == dst) {
      continue;
    }
    ++expected;
    net.network.send(src, dst, Bytes{rng.between(16, 1024)},
                     [&delivered](std::uint64_t, Bytes, Picoseconds) {
                       ++delivered;
                     });
  }
  net.engine.run();
  EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, RoutingUnderLoad,
                         ::testing::Values("XY"));

}  // namespace
}  // namespace hybridic::noc
