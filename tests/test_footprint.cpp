// Tests of the profiler's memory-footprint analysis (QUAD's flat memory
// profile).
#include <gtest/gtest.h>

#include "prof/quad.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

TEST(Footprint, UniqueWrittenBytesDedupe) {
  prof::QuadProfiler q;
  const auto f = q.declare("f");
  const std::uint64_t addr = q.allocate(64);
  q.enter(f);
  q.record_write(addr, 32);
  q.record_write(addr, 32);       // Same range again.
  q.record_write(addr + 16, 32);  // Half-overlapping.
  q.leave();
  EXPECT_EQ(q.unique_bytes_written(f), 48U);
  EXPECT_EQ(q.graph().function(f).writes, 96U);  // Raw count still 96.
}

TEST(Footprint, UniqueReadBytesDedupe) {
  prof::QuadProfiler q;
  const auto w = q.declare("w");
  const auto r = q.declare("r");
  const std::uint64_t addr = q.allocate(128);
  q.enter(w);
  q.record_write(addr, 128);
  q.leave();
  q.enter(r);
  for (int i = 0; i < 5; ++i) {
    q.record_read(addr, 100);
  }
  q.leave();
  EXPECT_EQ(q.unique_bytes_read(r), 100U);
  EXPECT_EQ(q.unique_bytes_read(w), 0U);
  EXPECT_EQ(q.unique_bytes_written(r), 0U);
}

TEST(Footprint, QueryUndeclaredThrows) {
  prof::QuadProfiler q;
  EXPECT_THROW((void)q.unique_bytes_written(0), ConfigError);
  EXPECT_THROW((void)q.unique_bytes_read(3), ConfigError);
}

TEST(Footprint, MemoryReportListsAllFunctions) {
  prof::QuadProfiler q;
  const auto a = q.declare("alpha");
  const auto b = q.declare("beta");
  const std::uint64_t addr = q.allocate(16);
  q.enter(a);
  q.record_write(addr, 16);
  q.add_work(7);
  q.leave();
  q.enter(b);
  q.record_read(addr, 16);
  q.leave();
  const std::string report = q.memory_report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
  EXPECT_NE(report.find("16"), std::string::npos);
  EXPECT_NE(report.find("7"), std::string::npos);
}

}  // namespace
}  // namespace hybridic
