#include "prof/tracked.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "util/error.hpp"

namespace hybridic::prof {
namespace {

class TrackedTest : public ::testing::Test {
protected:
  QuadProfiler q_;
  FunctionId writer_ = q_.declare("writer");
  FunctionId reader_ = q_.declare("reader");
};

TEST_F(TrackedTest, SetGetRoundTrip) {
  TrackedBuffer<int> buffer{q_, "buf", 8};
  ScopedFunction scope{q_, writer_};
  buffer.set(3, 42);
  EXPECT_EQ(buffer.get(3), 42);
}

TEST_F(TrackedTest, AccessesCreateEdges) {
  TrackedBuffer<float> buffer{q_, "buf", 4};
  {
    ScopedFunction scope{q_, writer_};
    buffer.set(0, 1.0F);
    buffer.set(1, 2.0F);
  }
  {
    ScopedFunction scope{q_, reader_};
    (void)buffer.get(0);
    (void)buffer.get(1);
  }
  EXPECT_EQ(q_.graph().bytes_between(writer_, reader_).count(),
            2 * sizeof(float));
}

TEST_F(TrackedTest, ProxyOperatorTracksBothDirections) {
  TrackedBuffer<int> buffer{q_, "buf", 4};
  {
    ScopedFunction scope{q_, writer_};
    buffer[0] = 7;
    buffer[1] = buffer[0] + 1;  // read then write
    buffer[1] += 2;
  }
  {
    ScopedFunction scope{q_, reader_};
    const int v = buffer[1];
    EXPECT_EQ(v, 10);
  }
  EXPECT_EQ(q_.graph().bytes_between(writer_, reader_).count(),
            sizeof(int));
  EXPECT_GT(q_.graph().bytes_between(writer_, writer_).count(), 0U);
}

TEST_F(TrackedTest, BulkRangesTrackOnce) {
  TrackedBuffer<std::uint8_t> buffer{q_, "buf", 64};
  std::array<std::uint8_t, 64> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  {
    ScopedFunction scope{q_, writer_};
    buffer.write_range(0, 64, data.data());
  }
  std::array<std::uint8_t, 32> out{};
  {
    ScopedFunction scope{q_, reader_};
    buffer.read_range(16, 32, out.data());
  }
  EXPECT_EQ(out[0], 16);
  EXPECT_EQ(q_.graph().bytes_between(writer_, reader_).count(), 32U);
}

TEST_F(TrackedTest, PeekAndPokeAreUntracked) {
  TrackedBuffer<int> buffer{q_, "buf", 2};
  buffer.poke(0, 5);
  EXPECT_EQ(buffer.peek(0), 5);
  EXPECT_TRUE(q_.graph().edges().empty());
  EXPECT_EQ(q_.graph().function(writer_).writes, 0U);
}

TEST_F(TrackedTest, OutOfBoundsThrows) {
  TrackedBuffer<int> buffer{q_, "buf", 4};
  ScopedFunction scope{q_, writer_};
  EXPECT_THROW(buffer.set(4, 0), ConfigError);
  EXPECT_THROW((void)buffer.get(100), ConfigError);
  EXPECT_THROW((void)buffer.peek(4), ConfigError);
  std::array<int, 4> tmp{};
  EXPECT_THROW(buffer.read_range(2, 3, tmp.data()), ConfigError);
  EXPECT_THROW(buffer.write_range(3, 2, tmp.data()), ConfigError);
  // first + count wraps past SIZE_MAX to a small value.
  EXPECT_THROW(buffer.read_range(1, SIZE_MAX, tmp.data()), ConfigError);
  EXPECT_THROW(buffer.write_range(1, SIZE_MAX, tmp.data()), ConfigError);
  EXPECT_THROW(buffer.read_range(SIZE_MAX, 2, tmp.data()), ConfigError);
}

TEST_F(TrackedTest, DistinctBuffersDoNotAlias) {
  TrackedBuffer<int> a{q_, "a", 4};
  TrackedBuffer<int> b{q_, "b", 4};
  EXPECT_GE(b.base_address(), a.base_address() + 4 * sizeof(int));
  {
    ScopedFunction scope{q_, writer_};
    a.set(0, 1);
  }
  {
    ScopedFunction scope{q_, reader_};
    // Reading the untouched buffer b creates no edge from writer.
    b.poke(0, 0);
    (void)b.get(0);
  }
  EXPECT_EQ(q_.graph().bytes_between(writer_, reader_).count(), 0U);
}

TEST_F(TrackedTest, AccessOutsideFunctionThrows) {
  TrackedBuffer<int> buffer{q_, "buf", 1};
  EXPECT_THROW(buffer.set(0, 1), ConfigError);
}

TEST_F(TrackedTest, SizeAndName) {
  TrackedBuffer<double> buffer{q_, "named", 17};
  EXPECT_EQ(buffer.size(), 17U);
  EXPECT_EQ(buffer.name(), "named");
}

}  // namespace
}  // namespace hybridic::prof
