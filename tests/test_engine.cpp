#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace hybridic::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now().count(), 0U);
}

TEST(Engine, RunExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Picoseconds{20}, [&] { order.push_back(2); });
  engine.schedule_at(Picoseconds{10}, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now().count(), 20U);
  EXPECT_EQ(engine.events_executed(), 2U);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine engine;
  Picoseconds fired{0};
  engine.schedule_at(Picoseconds{100}, [&] {
    engine.schedule_after(Picoseconds{50},
                          [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired.count(), 150U);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(Picoseconds{100}, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(Picoseconds{50}, [] {}),
               SimulationError);
}

TEST(Engine, RunRespectsLimit) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Picoseconds{10}, [&] { ++fired; });
  engine.schedule_at(Picoseconds{1000}, [&] { ++fired; });
  engine.run(Picoseconds{100});
  EXPECT_EQ(fired, 1);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilPredicate) {
  Engine engine;
  int counter = 0;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    engine.schedule_at(Picoseconds{i * 10}, [&] { ++counter; });
  }
  const bool hit = engine.run_until([&] { return counter == 4; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(engine.now().count(), 40U);
}

TEST(Engine, RunUntilReturnsFalseWhenQueueDrains) {
  Engine engine;
  engine.schedule_at(Picoseconds{1}, [] {});
  EXPECT_FALSE(engine.run_until([] { return false; }));
}

/// A ticking component that counts a fixed number of edges then suspends.
class Counter : public Ticking {
public:
  explicit Counter(int limit) : limit_(limit) {}
  bool tick(Picoseconds now) override {
    ticks.push_back(now);
    return static_cast<int>(ticks.size()) < limit_;
  }
  std::vector<Picoseconds> ticks;

private:
  int limit_;
};

TEST(Engine, TickingRunsOnClockEdges) {
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};  // 10 ns
  Counter counter{3};
  engine.attach_ticking(counter, clock);
  engine.activate();
  engine.run();
  ASSERT_EQ(counter.ticks.size(), 3U);
  EXPECT_EQ(counter.ticks[0].count(), 10'000U);
  EXPECT_EQ(counter.ticks[1].count(), 20'000U);
  EXPECT_EQ(counter.ticks[2].count(), 30'000U);
}

TEST(Engine, SuspendedTickingCanBeReactivated) {
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};
  Counter counter{1};  // Suspends after one tick.
  engine.attach_ticking(counter, clock);
  engine.activate();
  engine.run();
  EXPECT_EQ(counter.ticks.size(), 1U);
  counter = Counter{1};
  engine.activate();
  engine.run();
  EXPECT_EQ(counter.ticks.size(), 1U);
  EXPECT_GT(counter.ticks[0].count(), 10'000U);
}

TEST(Engine, RedundantActivationIsSafe) {
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};
  Counter counter{2};
  engine.attach_ticking(counter, clock);
  engine.activate();
  engine.activate();
  engine.activate();
  engine.run();
  EXPECT_EQ(counter.ticks.size(), 2U);  // No duplicate ticks.
}

TEST(Engine, SecondAttachThrows) {
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};
  Counter first{1};
  Counter second{1};
  engine.attach_ticking(first, clock);
  EXPECT_THROW(engine.attach_ticking(second, clock), SimulationError);
}

TEST(Engine, ActivateWithoutComponentThrows) {
  Engine engine;
  EXPECT_THROW(engine.activate(), SimulationError);
}

TEST(Engine, PendingTickOutlivesRunLimit) {
  // A watchdog that stops the run while only the tick is pending must see
  // pending work; once the component suspends and the tick drains, none.
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};  // 10 ns
  Counter counter{5};
  engine.attach_ticking(counter, clock);
  engine.activate();
  EXPECT_FALSE(engine.run_until([] { return false; }, Picoseconds{25'000}));
  EXPECT_EQ(counter.ticks.size(), 2U);
  EXPECT_TRUE(engine.has_pending());
  EXPECT_FALSE(engine.run_until([] { return false; }));
  EXPECT_EQ(counter.ticks.size(), 5U);
  EXPECT_FALSE(engine.has_pending());
}

TEST(ClockDomain, EdgeArithmetic) {
  ClockDomain clock{"c", Frequency::megahertz(100)};
  EXPECT_EQ(clock.edge(0).count(), 0U);
  EXPECT_EQ(clock.edge(5).count(), 50'000U);
  EXPECT_EQ(clock.next_edge_index(Picoseconds{0}), 0U);
  EXPECT_EQ(clock.next_edge_index(Picoseconds{1}), 1U);
  EXPECT_EQ(clock.next_edge_index(Picoseconds{10'000}), 1U);
  EXPECT_EQ(clock.align_up(Picoseconds{10'001}).count(), 20'000U);
  EXPECT_EQ(clock.span(Cycles{3}).count(), 30'000U);
}

}  // namespace
}  // namespace hybridic::sim
