#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hybridic::noc {
namespace {

const sim::ClockDomain kNocClock{"noc", Frequency::megahertz(150)};

struct Fixture {
  explicit Fixture(std::uint32_t w = 3, std::uint32_t h = 3,
                   NetworkConfig config = {})
      : network("noc", engine, kNocClock, Mesh2D{w, h}, config) {}

  sim::Engine engine;
  Network network;
};

TEST(Network, SingleMessageDelivered) {
  Fixture f;
  f.network.attach_adapter(0, "src", AdapterKind::kAccelerator);
  f.network.attach_adapter(8, "dst", AdapterKind::kLocalMemory);
  Picoseconds delivered{0};
  Bytes delivered_bytes{0};
  f.network.send(0, 8, Bytes{1024},
                 [&](std::uint64_t, Bytes b, Picoseconds at) {
                   delivered = at;
                   delivered_bytes = b;
                 });
  f.engine.run();
  EXPECT_GT(delivered.count(), 0U);
  EXPECT_EQ(delivered_bytes.count(), 1024U);
  EXPECT_EQ(f.network.stats().messages_delivered, 1U);
  EXPECT_EQ(f.network.inflight_messages(), 0U);
}

TEST(Network, LatencyAboveIdealLowerBound) {
  Fixture f;
  f.network.attach_adapter(0, "src", AdapterKind::kAccelerator);
  f.network.attach_adapter(8, "dst", AdapterKind::kLocalMemory);
  Picoseconds delivered{0};
  f.network.send(0, 8, Bytes{512},
                 [&](std::uint64_t, Bytes, Picoseconds at) {
                   delivered = at;
                 });
  f.engine.run();
  const Picoseconds ideal =
      f.network.ideal_latency(Bytes{512}, f.network.mesh().distance(0, 8));
  EXPECT_GE(delivered.count(), ideal.count() / 2);  // sanity lower bound
}

TEST(Network, ZeroByteMessageStillDelivers) {
  Fixture f;
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  f.network.attach_adapter(1, "b", AdapterKind::kLocalMemory);
  bool delivered = false;
  f.network.send(0, 1, Bytes{0},
                 [&](std::uint64_t, Bytes, Picoseconds) {
                   delivered = true;
                 });
  f.engine.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, LoopbackDeliversNextEdge) {
  Fixture f;
  f.network.attach_adapter(4, "self", AdapterKind::kAccelerator);
  bool delivered = false;
  f.network.send(4, 4, Bytes{64},
                 [&](std::uint64_t, Bytes, Picoseconds) {
                   delivered = true;
                 });
  f.engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(f.network.stats().flits_ejected, 0U);  // never hit the fabric
}

TEST(Network, SendWithoutAdaptersRejected) {
  Fixture f;
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  EXPECT_THROW(f.network.send(0, 5, Bytes{8}, {}), ConfigError);
  EXPECT_THROW(f.network.send(7, 0, Bytes{8}, {}), ConfigError);
  EXPECT_THROW(f.network.send(0, 99, Bytes{8}, {}), ConfigError);
}

TEST(Network, DuplicateAdapterRejected) {
  Fixture f;
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  EXPECT_THROW(f.network.attach_adapter(0, "b", AdapterKind::kLocalMemory),
               ConfigError);
}

TEST(Network, MessagesBetweenSamePairStayOrdered) {
  Fixture f;
  f.network.attach_adapter(0, "src", AdapterKind::kAccelerator);
  f.network.attach_adapter(8, "dst", AdapterKind::kLocalMemory);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 5; ++i) {
    f.network.send(0, 8, Bytes{256},
                   [&order](std::uint64_t id, Bytes, Picoseconds) {
                     order.push_back(id);
                   });
  }
  f.engine.run();
  ASSERT_EQ(order.size(), 5U);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

TEST(Network, ConcurrentFlowsAllDeliver) {
  Fixture f;
  for (std::uint32_t n = 0; n < 9; ++n) {
    std::string name = "n";
    name += std::to_string(n);
    f.network.attach_adapter(n, std::move(name), AdapterKind::kAccelerator);
  }
  int delivered = 0;
  int expected = 0;
  for (std::uint32_t src = 0; src < 9; ++src) {
    for (std::uint32_t dst = 0; dst < 9; ++dst) {
      if (src == dst) {
        continue;
      }
      ++expected;
      f.network.send(src, dst, Bytes{128},
                     [&delivered](std::uint64_t, Bytes, Picoseconds) {
                       ++delivered;
                     });
    }
  }
  f.engine.run();
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(f.network.inflight_messages(), 0U);
}

TEST(Network, TinyBuffersStillDrainEverything) {
  NetworkConfig config;
  config.router.buffer_flits = 1;  // Maximum backpressure.
  config.max_packet_payload_bytes = 16;
  Fixture f{3, 3, config};
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  f.network.attach_adapter(8, "b", AdapterKind::kLocalMemory);
  f.network.attach_adapter(2, "c", AdapterKind::kAccelerator);
  f.network.attach_adapter(6, "d", AdapterKind::kLocalMemory);
  int delivered = 0;
  f.network.send(0, 8, Bytes{512},
                 [&](std::uint64_t, Bytes, Picoseconds) { ++delivered; });
  f.network.send(2, 6, Bytes{512},
                 [&](std::uint64_t, Bytes, Picoseconds) { ++delivered; });
  f.engine.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Network, StatsCountEjectedFlits) {
  Fixture f;
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  f.network.attach_adapter(1, "b", AdapterKind::kLocalMemory);
  f.network.send(0, 1, Bytes{400}, {});
  f.engine.run();
  // 400 bytes = 100 payload flits + 2 head flits (256-byte packets).
  EXPECT_EQ(f.network.stats().flits_ejected, 102U);
}

TEST(Network, IdealLatencyMonotoneInSizeAndHops) {
  Fixture f;
  EXPECT_LT(f.network.ideal_latency(Bytes{64}, 2).count(),
            f.network.ideal_latency(Bytes{1024}, 2).count());
  EXPECT_LT(f.network.ideal_latency(Bytes{64}, 1).count(),
            f.network.ideal_latency(Bytes{64}, 4).count());
}

TEST(Network, ThroughputBoundedByLinkRate) {
  // One flow across one hop cannot beat 1 flit/cycle.
  Fixture f{2, 1};
  f.network.attach_adapter(0, "a", AdapterKind::kAccelerator);
  f.network.attach_adapter(1, "b", AdapterKind::kLocalMemory);
  Picoseconds delivered{0};
  const Bytes size{64 * 1024};
  f.network.send(0, 1, size,
                 [&](std::uint64_t, Bytes, Picoseconds at) {
                   delivered = at;
                 });
  f.engine.run();
  const std::uint64_t min_cycles = payload_flits(size.count());
  EXPECT_GE(delivered.count(),
            min_cycles * kNocClock.period().count());
}

/// Property sweep: random traffic on random mesh sizes — every message is
/// delivered exactly once, with positive latency, regardless of seed.
class RandomTraffic
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(RandomTraffic, Conservation) {
  const auto& [dim, seed] = GetParam();
  Rng rng{seed};
  Fixture f{dim, dim};
  for (std::uint32_t n = 0; n < dim * dim; ++n) {
    std::string name = "n";
    name += std::to_string(n);
    f.network.attach_adapter(n, std::move(name),
                             n % 2 == 0 ? AdapterKind::kAccelerator
                                        : AdapterKind::kLocalMemory);
  }
  std::map<std::uint64_t, int> delivery_count;
  const int messages = 40;
  for (int m = 0; m < messages; ++m) {
    const auto src = static_cast<std::uint32_t>(rng.below(dim * dim));
    auto dst = static_cast<std::uint32_t>(rng.below(dim * dim));
    if (dst == src) {
      dst = (dst + 1) % (dim * dim);
    }
    const Bytes bytes{rng.between(1, 2048)};
    f.network.send(src, dst, bytes,
                   [&delivery_count](std::uint64_t id, Bytes, Picoseconds) {
                     ++delivery_count[id];
                   });
  }
  f.engine.run();
  EXPECT_EQ(delivery_count.size(), static_cast<std::size_t>(messages));
  for (const auto& [id, count] : delivery_count) {
    EXPECT_EQ(count, 1) << "message " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraffic,
    ::testing::Combine(::testing::Values(2U, 3U, 4U),
                       ::testing::Values(1ULL, 7ULL, 42ULL)));

}  // namespace
}  // namespace hybridic::noc
