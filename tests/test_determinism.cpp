// Determinism regression tests for the split event core: one-shot events
// live in the EventQueue heap while the clocked component's next tick lives
// in one pending-tick slot, but both draw sequence numbers from one shared
// counter, so the merged execution order must remain exactly the
// documented (time, scheduling-order) FIFO of a single-queue engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace hybridic::sim {
namespace {

/// Ticking component that appends a label to a shared journal on each edge.
class Journaled : public Ticking {
public:
  Journaled(std::string label, std::vector<std::string>& journal, int limit)
      : label_(std::move(label)), journal_(&journal), limit_(limit) {}

  bool tick(Picoseconds) override {
    journal_->push_back(label_);
    return --limit_ > 0;
  }

private:
  std::string label_;
  std::vector<std::string>* journal_;
  int limit_;
};

TEST(Determinism, SameTimestampEventsPopInSchedulingOrder) {
  // Five one-shots at the same instant must run in the order scheduled,
  // regardless of heap internals.
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(Picoseconds{100}, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Determinism, TicksAndOneShotsInterleaveBySchedulingOrder) {
  // At the tick's edge, scheduling order decides ties: a one-shot scheduled
  // before activate() runs before the tick, one scheduled after runs after
  // it. A tick re-armed by its own tick takes a fresh sequence number, so
  // it follows a one-shot already queued at its next edge.
  Engine engine;
  ClockDomain clock{"k", Frequency::megahertz(100)};  // edges at 10 ns
  std::vector<std::string> journal;
  Journaled component{"tick", journal, 2};
  engine.attach_ticking(component, clock);

  engine.schedule_at(Picoseconds{10'000},
                     [&journal] { journal.push_back("shot-before"); });
  engine.activate();  // The tick lands on the 10'000 ps edge.
  engine.schedule_at(Picoseconds{10'000},
                     [&journal] { journal.push_back("shot-after"); });
  engine.schedule_at(Picoseconds{20'000},
                     [&journal] { journal.push_back("shot-next-edge"); });
  engine.run();
  EXPECT_EQ(journal,
            (std::vector<std::string>{"shot-before", "tick", "shot-after",
                                      "shot-next-edge", "tick"}));
}

TEST(Determinism, ScheduleAfterOverflowThrows) {
  Engine engine;
  engine.schedule_at(Picoseconds{100}, [] {});
  engine.run();
  EXPECT_THROW(
      engine.schedule_after(Picoseconds{UINT64_MAX - 50}, [] {}),
      SimulationError);
  // A delay that still fits the timeline is fine.
  engine.schedule_after(Picoseconds{UINT64_MAX - engine.now().count()},
                        [] {});
}

TEST(Determinism, InlineActionSupportsMoveOnlyCaptures) {
  Engine engine;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  engine.schedule_at(Picoseconds{10},
                     [p = std::move(payload), &seen] { seen = *p; });
  engine.run();
  EXPECT_EQ(seen, 42);
}

}  // namespace
}  // namespace hybridic::sim
