#include "bus/dma.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hybridic::bus {
namespace {

const sim::ClockDomain kBusClock{"bus", Frequency::megahertz(100)};
const sim::ClockDomain kHostClock{"host", Frequency::megahertz(400)};
const sim::ClockDomain kKernelClock{"kernel", Frequency::megahertz(100)};

class DmaTest : public ::testing::Test {
protected:
  DmaTest()
      : sdram_("sdram", kBusClock, mem::SdramConfig{8, Cycles{20}}),
        bus_("plb", engine_, kBusClock, BusConfig{8, 16, Cycles{2},
                                                  Cycles{1}, 2}),
        dma_("dma", engine_, bus_, sdram_, kHostClock,
             DmaConfig{Cycles{40}, 1024}, 1),
        bram_("bram", kKernelClock, Bytes{64 * 1024}, 4) {}

  Picoseconds run_transfer(DmaDirection dir, Bytes bytes) {
    Picoseconds done{0};
    bool finished = false;
    dma_.transfer(dir, bytes, bram_, [&](Picoseconds at) {
      done = at;
      finished = true;
    });
    engine_.run();
    EXPECT_TRUE(finished);
    return done;
  }

  sim::Engine engine_;
  mem::Sdram sdram_;
  Bus bus_;
  Dma dma_;
  mem::Bram bram_;
};

TEST_F(DmaTest, SetupTimePrecedesFirstChunk) {
  // 40 host cycles at 400 MHz = 100 ns before anything hits the bus.
  const Picoseconds done = run_transfer(DmaDirection::kMemToLocal, Bytes{8});
  EXPECT_GE(done.count(), 100'000U);
}

TEST_F(DmaTest, SingleChunkCompletes) {
  const Picoseconds done =
      run_transfer(DmaDirection::kMemToLocal, Bytes{512});
  EXPECT_GT(done.count(), 0U);
  EXPECT_EQ(bus_.transactions(), 1U);
  EXPECT_EQ(bus_.bytes_transferred().count(), 512U);
}

TEST_F(DmaTest, LargeTransferSplitsIntoChunks) {
  (void)run_transfer(DmaDirection::kMemToLocal, Bytes{4096});
  EXPECT_EQ(bus_.transactions(), 4U);  // 4096 / 1024-byte chunks
}

TEST_F(DmaTest, NonMultipleChunkTail) {
  (void)run_transfer(DmaDirection::kLocalToMem, Bytes{2500});
  EXPECT_EQ(bus_.transactions(), 3U);  // 1024 + 1024 + 452
  EXPECT_EQ(bus_.bytes_transferred().count(), 2500U);
}

TEST_F(DmaTest, TransfersTouchSdramAndBram) {
  (void)run_transfer(DmaDirection::kMemToLocal, Bytes{1000});
  EXPECT_EQ(sdram_.bytes_transferred().count(), 1000U);
  EXPECT_EQ(bram_.bytes_through(mem::BramPort::kA).count(), 1000U);
}

TEST_F(DmaTest, LargerTransfersTakeLonger) {
  const Picoseconds small =
      run_transfer(DmaDirection::kMemToLocal, Bytes{256});
  sim::Engine fresh;  // A clean timeline for the larger transfer.
  mem::Sdram sdram{"s", kBusClock, mem::SdramConfig{8, Cycles{20}}};
  Bus bus{"b", fresh, kBusClock, BusConfig{8, 16, Cycles{2}, Cycles{1}, 2}};
  Dma dma{"d", fresh, bus, sdram, kHostClock, DmaConfig{Cycles{40}, 1024},
          1};
  mem::Bram bram{"m", kKernelClock, Bytes{64 * 1024}, 4};
  Picoseconds big{0};
  dma.transfer(DmaDirection::kMemToLocal, Bytes{8192}, bram,
               [&](Picoseconds at) { big = at; });
  fresh.run();
  EXPECT_GT(big.count(), small.count());
}

TEST_F(DmaTest, TransferViaCustomLocalAccess) {
  int hits = 0;
  Picoseconds done{0};
  bool finished = false;
  dma_.transfer_via(
      DmaDirection::kMemToLocal, Bytes{2048},
      [&hits](Picoseconds earliest, Bytes) {
        ++hits;
        return earliest + Picoseconds{5'000};
      },
      [&](Picoseconds at) {
        done = at;
        finished = true;
      });
  engine_.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(hits, 2);  // one per 1024-byte chunk
}

TEST_F(DmaTest, CountsStartedTransfers) {
  (void)run_transfer(DmaDirection::kMemToLocal, Bytes{8});
  (void)run_transfer(DmaDirection::kLocalToMem, Bytes{8});
  EXPECT_EQ(dma_.transfers_started(), 2U);
}

TEST(DmaConfigValidation, ZeroChunkRejected) {
  sim::Engine engine;
  mem::Sdram sdram{"s", kBusClock, mem::SdramConfig{}};
  Bus bus{"b", engine, kBusClock, BusConfig{}};
  EXPECT_THROW(Dma("d", engine, bus, sdram, kHostClock,
                   DmaConfig{Cycles{1}, 0}, 0),
               ConfigError);
}

}  // namespace
}  // namespace hybridic::bus
