// The simulation engine: owns the event queue and the global clock, and
// drives registered ticking components.
//
// Periodic work (clocked components) and aperiodic work (one-shot events)
// are kept in separate structures: one-shots live in the binary-heap
// EventQueue, while ticks live in per-clock-domain "tick wheels" holding
// plain {edge, sequence, handle} records — no callable storage at all.
// Both share one global sequence counter, so the merged execution order is
// exactly the documented (time, scheduling-order) FIFO determinism of the
// single-queue design.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event.hpp"
#include "util/units.hpp"

namespace hybridic::sim {

/// Periodically-ticked behaviour attached to a clock domain. The engine only
/// schedules ticks for components that have asked to be active, so idle
/// fabrics cost nothing (important when simulating multi-millisecond runs).
class Ticking {
public:
  virtual ~Ticking() = default;

  /// One rising clock edge in the component's domain. Return true while the
  /// component still has work; returning false suspends ticking until
  /// `Engine::activate` is called for it again.
  virtual bool tick(Picoseconds now) = 0;
};

/// Discrete-event simulation engine with support for clocked components.
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

  /// Register a clocked component; returns a handle used with `activate`.
  std::size_t add_ticking(Ticking& component, const ClockDomain& domain);

  /// Wake a suspended clocked component; its next tick lands on the next
  /// clock edge of its domain. Safe to call redundantly.
  void activate(std::size_t handle);

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

  /// True while any one-shot event or component tick is still queued. After
  /// `run_until` returns false this distinguishes "watchdog limit reached"
  /// (still pending work) from "event queue drained" (deadlock).
  [[nodiscard]] bool has_pending() const { return peek_next().any; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Pending tick-wheel entries across all clock domains (for tests and
  /// introspection; one per scheduled component tick).
  [[nodiscard]] std::size_t pending_ticks() const;

  /// Number of distinct tick wheels (one per distinct clock period among
  /// registered components).
  [[nodiscard]] std::size_t tick_wheel_count() const {
    return wheels_.size();
  }

  /// Drop all state so the engine can host a fresh simulation.
  void reset();

private:
  struct TickingSlot {
    Ticking* component = nullptr;
    const ClockDomain* domain = nullptr;
    std::size_t wheel = 0;
    bool scheduled = false;
  };

  /// One scheduled tick: which component fires at which clock edge. The
  /// sequence number comes from the shared EventQueue counter, so ticks
  /// interleave with one-shot events in exact scheduling order.
  struct TickEntry {
    std::uint64_t edge_index;
    std::uint64_t sequence;
    std::uint32_t handle;
  };

  /// Min-heap of tick entries for all components sharing one clock period.
  struct TickWheel {
    std::uint64_t period_ps = 0;
    std::vector<TickEntry> heap;
  };

  /// Earliest pending work across the event heap and every tick wheel.
  struct NextSource {
    bool any = false;
    bool from_wheel = false;
    std::size_t wheel = 0;
    Picoseconds time{0};
    std::uint64_t sequence = 0;
  };

  /// Execute the earliest pending event or tick if it is due at or before
  /// `limit`; false when nothing is.
  bool step(Picoseconds limit);
  void schedule_tick(std::size_t handle);
  void run_tick(std::size_t handle);
  [[nodiscard]] NextSource peek_next() const;
  TickEntry pop_wheel(std::size_t wheel);

  static bool tick_earlier(const TickEntry& a, const TickEntry& b) {
    if (a.edge_index != b.edge_index) {
      return a.edge_index < b.edge_index;
    }
    return a.sequence < b.sequence;
  }

  EventQueue queue_;
  std::vector<TickingSlot> ticking_;
  std::vector<TickWheel> wheels_;
  Picoseconds now_{0};
  std::uint64_t events_executed_ = 0;
};

}  // namespace hybridic::sim
