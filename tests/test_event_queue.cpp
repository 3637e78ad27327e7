#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace hybridic::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PopOrderedByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(Picoseconds{300}, [&order] { order.push_back(3); });
  queue.schedule(Picoseconds{100}, [&order] { order.push_back(1); });
  queue.schedule(Picoseconds{200}, [&order] { order.push_back(2); });
  while (!queue.empty()) {
    queue.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(Picoseconds{42}, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.pop().action();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.schedule(Picoseconds{500}, [] {});
  queue.schedule(Picoseconds{50}, [] {});
  EXPECT_EQ(queue.next_time(), Picoseconds{50});
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW((void)queue.next_time(), SimulationError);
  EXPECT_THROW((void)queue.pop(), SimulationError);
}

TEST(EventQueue, InterleavedScheduleAndPop) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(Picoseconds{10}, [&] { order.push_back(1); });
  queue.pop().action();
  queue.schedule(Picoseconds{5}, [&] { order.push_back(2); });
  queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace hybridic::sim
