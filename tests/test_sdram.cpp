#include "mem/sdram.hpp"

#include <gtest/gtest.h>

namespace hybridic::mem {
namespace {

const sim::ClockDomain kClock{"bus", Frequency::megahertz(100)};  // 10 ns

TEST(Sdram, BurstTimeIncludesAccessLatency) {
  Sdram sdram{"m", kClock, SdramConfig{8, Cycles{20}}};
  // 64 bytes = 8 beats = 80 ns, + 20 cycles latency = 200 ns.
  EXPECT_EQ(sdram.burst_time(Bytes{64}).count(), 280'000U);
}

TEST(Sdram, AccessPaysLatencyBeforeData) {
  Sdram sdram{"m", kClock, SdramConfig{8, Cycles{20}}};
  const Picoseconds done = sdram.access(Picoseconds{0}, Bytes{8});
  // latency 200 ns then 1 beat of 10 ns.
  EXPECT_EQ(done.count(), 210'000U);
}

TEST(Sdram, BackToBackBurstsSerialize) {
  Sdram sdram{"m", kClock, SdramConfig{8, Cycles{20}}};
  const Picoseconds first = sdram.access(Picoseconds{0}, Bytes{8});
  const Picoseconds second = sdram.access(Picoseconds{0}, Bytes{8});
  EXPECT_GE(second.count(), first.count() + 210'000U);
}

TEST(Sdram, TracksBytes) {
  Sdram sdram{"m", kClock, SdramConfig{}};
  (void)sdram.access(Picoseconds{0}, Bytes{100});
  (void)sdram.access(Picoseconds{0}, Bytes{28});
  EXPECT_EQ(sdram.bytes_transferred().count(), 128U);
}

TEST(Sdram, LargerBurstsAmortizeLatency) {
  Sdram sdram{"m", kClock, SdramConfig{8, Cycles{20}}};
  const double small_rate =
      64.0 / sdram.burst_time(Bytes{64}).seconds();
  const double big_rate =
      4096.0 / sdram.burst_time(Bytes{4096}).seconds();
  EXPECT_GT(big_rate, 2.0 * small_rate);
}

}  // namespace
}  // namespace hybridic::mem
