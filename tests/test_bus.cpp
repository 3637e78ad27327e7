#include "bus/bus.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace hybridic::bus {
namespace {

const sim::ClockDomain kBusClock{"bus", Frequency::megahertz(100)};  // 10 ns

BusConfig plb_like() {
  // 64-bit, 16-beat bursts, 2 arb + 1 addr cycles.
  return BusConfig{8, 16, Cycles{2}, Cycles{1}, 2};
}

class BusTest : public ::testing::Test {
protected:
  sim::Engine engine_;
  Bus bus_{"plb", engine_, kBusClock, plb_like()};
};

TEST_F(BusTest, UncontendedTimeSmallTransfer) {
  // 8 bytes = 1 beat, 1 burst: 2 + 1 + 1 = 4 cycles = 40 ns.
  EXPECT_EQ(bus_.uncontended_time(Bytes{8}).count(), 40'000U);
}

TEST_F(BusTest, UncontendedTimeMultiBurst) {
  // 256 bytes = 32 beats = 2 bursts: 2 + 2*1 + 32 = 36 cycles.
  EXPECT_EQ(bus_.uncontended_time(Bytes{256}).count(), 360'000U);
}

TEST_F(BusTest, ZeroByteTransactionStillRunsAddressPhase) {
  // 2 arb + 1 addr + 0 beats = 3 cycles.
  EXPECT_EQ(bus_.uncontended_time(Bytes{0}).count(), 30'000U);
}

TEST_F(BusTest, ThetaMatchesUncontendedTime) {
  const Bytes reference{4096};
  const double theta =
      theta_seconds_per_byte(plb_like(), kBusClock.period(), reference);
  EXPECT_DOUBLE_EQ(theta, bus_.uncontended_time(reference).seconds() /
                              4096.0);
}

TEST_F(BusTest, CompletionCallbackFiresAtDeliveryTime) {
  Picoseconds done{0};
  bus_.submit(BusRequest{0, Bytes{8}, Picoseconds{0},
                         [&done](Picoseconds at) { done = at; }});
  engine_.run();
  EXPECT_EQ(done.count(), 40'000U);
}

TEST_F(BusTest, SlaveLatencyDelaysRequesterNotBus) {
  Picoseconds first{0};
  Picoseconds second{0};
  bus_.submit(BusRequest{0, Bytes{8}, Picoseconds{100'000},
                         [&](Picoseconds at) { first = at; }});
  bus_.submit(BusRequest{0, Bytes{8}, Picoseconds{0},
                         [&](Picoseconds at) { second = at; }});
  engine_.run();
  EXPECT_EQ(first.count(), 140'000U);  // 40 ns bus + 100 ns slave.
  // The bus itself freed after 40 ns, so the second transaction finishes
  // at 80 ns — before the first requester's slave completes.
  EXPECT_EQ(second.count(), 80'000U);
}

TEST_F(BusTest, SequentialRequestsSerialize) {
  std::vector<Picoseconds> done;
  for (int i = 0; i < 3; ++i) {
    bus_.submit(BusRequest{0, Bytes{8}, Picoseconds{0},
                           [&done](Picoseconds at) { done.push_back(at); }});
  }
  engine_.run();
  ASSERT_EQ(done.size(), 3U);
  EXPECT_EQ(done[0].count(), 40'000U);
  EXPECT_EQ(done[1].count(), 80'000U);
  EXPECT_EQ(done[2].count(), 120'000U);
}

TEST_F(BusTest, PriorityArbitrationPrefersLowMaster) {
  std::vector<int> order;
  // Occupy the bus first so both contenders queue.
  bus_.submit(BusRequest{0, Bytes{128}, Picoseconds{0}, {}});
  bus_.submit(BusRequest{1, Bytes{8}, Picoseconds{0},
                         [&order](Picoseconds) { order.push_back(1); }});
  bus_.submit(BusRequest{0, Bytes{8}, Picoseconds{0},
                         [&order](Picoseconds) { order.push_back(0); }});
  engine_.run();
  ASSERT_EQ(order.size(), 2U);
  EXPECT_EQ(order[0], 0);  // master 0 wins despite arriving later
  EXPECT_EQ(order[1], 1);
}

TEST_F(BusTest, StatisticsTrackTraffic) {
  bus_.submit(BusRequest{0, Bytes{100}, Picoseconds{0}, {}});
  bus_.submit(BusRequest{1, Bytes{28}, Picoseconds{0}, {}});
  engine_.run();
  EXPECT_EQ(bus_.bytes_transferred().count(), 128U);
  EXPECT_EQ(bus_.transactions(), 2U);
  EXPECT_GT(bus_.busy_time().count(), 0U);
}

TEST_F(BusTest, InvalidMasterRejected) {
  EXPECT_THROW(bus_.submit(BusRequest{9, Bytes{8}, Picoseconds{0}, {}}),
               ConfigError);
}

/// Fixed-priority grants: whenever the bus frees, the lowest-numbered
/// master with a pending request wins, whatever the arrival order.
TEST(BusGrant, LowestIndexWins) {
  sim::Engine engine;
  BusConfig config = plb_like();
  config.master_count = 4;
  Bus bus{"b", engine, kBusClock, config};
  std::vector<std::uint32_t> order;
  bus.submit(BusRequest{3, Bytes{64}, Picoseconds{0}, {}});  // occupies
  for (const std::uint32_t master : {3U, 2U, 1U}) {
    bus.submit(BusRequest{master, Bytes{8}, Picoseconds{0},
                          [&order, master](Picoseconds) {
                            order.push_back(master);
                          }});
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(BusGrant, StarvesLowPriorityByDesign) {
  sim::Engine engine;
  Bus bus{"b", engine, kBusClock, plb_like()};
  std::vector<std::uint32_t> order;
  auto record = [&order](std::uint32_t master) {
    return [&order, master](Picoseconds) { order.push_back(master); };
  };
  bus.submit(BusRequest{0, Bytes{8}, Picoseconds{0}, record(0)});
  bus.submit(BusRequest{1, Bytes{8}, Picoseconds{0}, record(1)});
  for (int i = 0; i < 9; ++i) {
    bus.submit(BusRequest{0, Bytes{8}, Picoseconds{0}, record(0)});
  }
  engine.run();
  // Master 1 queued second but waits out every master-0 request.
  ASSERT_EQ(order.size(), 11U);
  EXPECT_EQ(order.back(), 1U);
}

TEST(BusConfigValidation, RejectsBadConfigs) {
  sim::Engine engine;
  BusConfig bad = plb_like();
  bad.width_bytes = 0;
  EXPECT_THROW(Bus("b", engine, kBusClock, bad), ConfigError);
  bad = plb_like();
  bad.max_burst_beats = 0;
  EXPECT_THROW(Bus("b", engine, kBusClock, bad), ConfigError);
}

/// Property: single-beat configuration (the ML510 default) has
/// theta ~ (arb+addr+1) cycles / width for any width.
class SingleBeatTheta : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SingleBeatTheta, MatchesClosedForm) {
  const std::uint32_t width = GetParam();
  const BusConfig config{width, 1, Cycles{2}, Cycles{1}, 1};
  const Bytes n{width * 100};
  // 2 arb + per-word (1 addr + 1 beat) * 100.
  const double expected =
      (2.0 + 200.0) * kBusClock.period().seconds() /
      static_cast<double>(n.count());
  EXPECT_NEAR(theta_seconds_per_byte(config, kBusClock.period(), n),
              expected, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Widths, SingleBeatTheta,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace hybridic::bus
