#include <gtest/gtest.h>

#include "mem/bram.hpp"
#include "mem/port.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"

namespace hybridic::mem {
namespace {

const sim::ClockDomain kClock{"kernel", Frequency::megahertz(100)};  // 10 ns

TEST(Port, TransferTimeRoundsUpToBeats) {
  Port port{"p", kClock, 4};
  EXPECT_EQ(port.transfer_time(Bytes{4}).count(), 10'000U);
  EXPECT_EQ(port.transfer_time(Bytes{5}).count(), 20'000U);
  EXPECT_EQ(port.transfer_time(Bytes{8}).count(), 20'000U);
  EXPECT_EQ(port.transfer_time(Bytes{0}).count(), 0U);
}

TEST(Port, ReserveSerializesTransfers) {
  Port port{"p", kClock, 4};
  const Picoseconds first = port.reserve(Picoseconds{0}, Bytes{40});
  EXPECT_EQ(first.count(), 100'000U);  // 10 beats
  // Second transfer asked to start earlier, but the port is busy.
  const Picoseconds second = port.reserve(Picoseconds{0}, Bytes{4});
  EXPECT_EQ(second.count(), 110'000U);
}

TEST(Port, ReserveAlignsToClockEdge) {
  Port port{"p", kClock, 4};
  const Picoseconds done = port.reserve(Picoseconds{10'001}, Bytes{4});
  EXPECT_EQ(done.count(), 30'000U);  // Starts at edge 20 ns, one beat.
}

TEST(Port, StatisticsAccumulate) {
  Port port{"p", kClock, 4};
  (void)port.reserve(Picoseconds{0}, Bytes{16});
  (void)port.reserve(Picoseconds{0}, Bytes{8});
  EXPECT_EQ(port.bytes_transferred().count(), 24U);
  EXPECT_EQ(port.transfers(), 2U);
}

TEST(Port, ZeroWidthRejected) {
  EXPECT_THROW(Port("p", kClock, 0), ConfigError);
}

TEST(Bram, PortsAreIndependent) {
  Bram bram{"b", kClock, Bytes{1024}, 4};
  const Picoseconds a = bram.access(BramPort::kA, Picoseconds{0}, Bytes{400});
  const Picoseconds b = bram.access(BramPort::kB, Picoseconds{0}, Bytes{4});
  EXPECT_EQ(a.count(), 1'000'000U);
  EXPECT_EQ(b.count(), 10'000U);  // Not blocked by port A.
}

TEST(Bram, SamePortSerializes) {
  Bram bram{"b", kClock, Bytes{1024}, 4};
  (void)bram.access(BramPort::kA, Picoseconds{0}, Bytes{40});
  const Picoseconds second =
      bram.access(BramPort::kA, Picoseconds{0}, Bytes{4});
  EXPECT_EQ(second.count(), 110'000U);
}

TEST(Bram, PerPortByteAccounting) {
  Bram bram{"b", kClock, Bytes{1024}, 4};
  (void)bram.access(BramPort::kA, Picoseconds{0}, Bytes{100});
  (void)bram.access(BramPort::kB, Picoseconds{0}, Bytes{12});
  EXPECT_EQ(bram.bytes_through(BramPort::kA).count(), 100U);
  EXPECT_EQ(bram.bytes_through(BramPort::kB).count(), 12U);
}

TEST(Bram, ZeroCapacityRejected) {
  EXPECT_THROW(Bram("b", kClock, Bytes{0}, 4), ConfigError);
}

/// Property: total occupancy of one port is the sum of individual beat
/// counts, regardless of interleave order.
class PortOccupancy : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PortOccupancy, ConservesBeats) {
  const std::uint32_t width = GetParam();
  Port port{"p", kClock, width};
  std::uint64_t expected_beats = 0;
  for (std::uint64_t bytes : {3ULL, 17ULL, 64ULL, 1ULL, 129ULL}) {
    expected_beats += (bytes + width - 1) / width;
    (void)port.reserve(Picoseconds{0}, Bytes{bytes});
  }
  EXPECT_EQ(port.free_at().count(),
            expected_beats * kClock.period().count());
}

INSTANTIATE_TEST_SUITE_P(Widths, PortOccupancy,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace hybridic::mem
