// The simulation engine: owns the event queue and the global clock, and
// drives the platform's one clocked component, the NoC.
//
// Periodic work (the clocked component) and aperiodic work (one-shot
// events) are kept apart: one-shots live in the binary-heap EventQueue,
// while the component's next tick is one {time, sequence} slot with no
// callable storage at all. Both draw from one global sequence counter, so
// the merged execution order is exactly the documented (time,
// scheduling-order) FIFO determinism of a single queue.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/clock.hpp"
#include "sim/event.hpp"
#include "util/units.hpp"

namespace hybridic::sim {

/// Periodically-ticked behaviour attached to a clock domain. The engine only
/// schedules ticks while the component has asked to be active, so an idle
/// fabric costs nothing (important when simulating multi-millisecond runs).
class Ticking {
public:
  virtual ~Ticking() = default;

  /// One rising clock edge in the component's domain. Return true while the
  /// component still has work; returning false suspends ticking until
  /// `Engine::activate` is called again.
  virtual bool tick(Picoseconds now) = 0;
};

/// Discrete-event simulation engine with one optional clocked component.
class Engine {
public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time.
  [[nodiscard]] Picoseconds now() const { return now_; }

  /// Schedule a one-shot action at absolute time `when` (>= now).
  void schedule_at(Picoseconds when, InlineAction action);

  /// Schedule a one-shot action `delay` after now.
  void schedule_after(Picoseconds delay, InlineAction action);

  /// Attach the engine's clocked component. An engine drives at most one;
  /// a second attach is a SimulationError.
  void attach_ticking(Ticking& component, const ClockDomain& domain);

  /// Wake the suspended clocked component; its next tick lands on the next
  /// clock edge of its domain. Safe to call redundantly.
  void activate();

  /// Run until no events remain or `limit` is reached.
  /// Returns the final simulation time.
  Picoseconds run(Picoseconds limit = Picoseconds{UINT64_MAX});

  /// Run until `predicate` returns true (checked after every event) or the
  /// queue drains. Returns true if the predicate fired. A template, so the
  /// per-event check inlines instead of calling through std::function.
  template <typename Predicate>
  bool run_until(Predicate&& predicate,
                 Picoseconds limit = Picoseconds{UINT64_MAX}) {
    if (predicate()) {
      return true;
    }
    while (step(limit)) {
      if (predicate()) {
        return true;
      }
    }
    return predicate();
  }

  /// True while a tick is pending or a one-shot event is queued. After
  /// `run_until` returns false this distinguishes "watchdog limit reached"
  /// (still pending work) from "event queue drained" (deadlock).
  [[nodiscard]] bool has_pending() const {
    return tick_.has_value() || !queue_.empty();
  }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

private:
  /// The component's next tick. Its sequence number comes from the
  /// EventQueue counter, so it interleaves with one-shot events in exact
  /// scheduling order.
  struct PendingTick {
    Picoseconds time;
    std::uint64_t sequence;
  };

  /// Execute the earliest pending event or tick if it is due at or before
  /// `limit`; false when nothing is.
  bool step(Picoseconds limit);
  void schedule_tick();

  EventQueue queue_;
  Ticking* ticking_ = nullptr;
  const ClockDomain* tick_domain_ = nullptr;
  std::optional<PendingTick> tick_;
  Picoseconds now_{0};
  std::uint64_t events_executed_ = 0;
};

}  // namespace hybridic::sim
