#include "sim/engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hybridic::sim {

void Engine::schedule_at(Picoseconds when, InlineAction action) {
  sim_assert(when >= now_, "cannot schedule an event in the past");
  queue_.schedule(when, std::move(action));
}

void Engine::schedule_after(Picoseconds delay, InlineAction action) {
  sim_assert(delay.count() <= UINT64_MAX - now_.count(),
             "schedule_after overflows the picosecond timeline");
  queue_.schedule(now_ + delay, std::move(action));
}

std::size_t Engine::add_ticking(Ticking& component, const ClockDomain& domain) {
  // Components whose domains share a clock period share a wheel; their
  // entries still order globally by (time, sequence), so sharing changes
  // nothing observable.
  const std::uint64_t period_ps = domain.period().count();
  sim_assert(period_ps > 0, "ticking clock domain has a zero period");
  std::size_t wheel = wheels_.size();
  for (std::size_t w = 0; w < wheels_.size(); ++w) {
    if (wheels_[w].period_ps == period_ps) {
      wheel = w;
      break;
    }
  }
  if (wheel == wheels_.size()) {
    wheels_.push_back(TickWheel{period_ps, {}});
  }
  ticking_.push_back(TickingSlot{&component, &domain, wheel, false});
  return ticking_.size() - 1;
}

void Engine::activate(std::size_t handle) {
  sim_assert(handle < ticking_.size(), "invalid ticking handle");
  if (!ticking_[handle].scheduled) {
    schedule_tick(handle);
  }
}

void Engine::schedule_tick(std::size_t handle) {
  TickingSlot& slot = ticking_[handle];
  slot.scheduled = true;
  // Ticks land strictly after `now` so a component activated at its own edge
  // time still sees causally-ordered inputs.
  const std::uint64_t edge =
      slot.domain->next_edge_index(now_ + Picoseconds{1});
  TickWheel& wheel = wheels_[slot.wheel];
  wheel.heap.push_back(TickEntry{edge, queue_.allocate_sequence(),
                                 static_cast<std::uint32_t>(handle)});
  std::push_heap(wheel.heap.begin(), wheel.heap.end(),
                 [](const TickEntry& a, const TickEntry& b) {
                   return tick_earlier(b, a);
                 });
}

void Engine::run_tick(std::size_t handle) {
  TickingSlot& slot = ticking_[handle];
  slot.scheduled = false;
  if (slot.component->tick(now_)) {
    if (!slot.scheduled) {
      schedule_tick(handle);
    }
  }
}

Engine::NextSource Engine::peek_next() const {
  NextSource next;
  if (!queue_.empty()) {
    next.any = true;
    next.time = queue_.next_time();
    next.sequence = queue_.next_sequence();
  }
  for (std::size_t w = 0; w < wheels_.size(); ++w) {
    if (wheels_[w].heap.empty()) {
      continue;
    }
    const TickEntry& top = wheels_[w].heap.front();
    const Picoseconds time{top.edge_index * wheels_[w].period_ps};
    if (!next.any || time < next.time ||
        (time == next.time && top.sequence < next.sequence)) {
      next.any = true;
      next.from_wheel = true;
      next.wheel = w;
      next.time = time;
      next.sequence = top.sequence;
    }
  }
  return next;
}

Engine::TickEntry Engine::pop_wheel(std::size_t wheel) {
  auto& heap = wheels_[wheel].heap;
  std::pop_heap(heap.begin(), heap.end(),
                [](const TickEntry& a, const TickEntry& b) {
                  return tick_earlier(b, a);
                });
  const TickEntry entry = heap.back();
  heap.pop_back();
  return entry;
}

bool Engine::step(Picoseconds limit) {
  const NextSource next = peek_next();
  if (!next.any || next.time > limit) {
    return false;
  }
  now_ = next.time;
  if (next.from_wheel) {
    const TickEntry entry = pop_wheel(next.wheel);
    run_tick(entry.handle);
  } else {
    Event event = queue_.pop();
    event.action();
  }
  ++events_executed_;
  return true;
}

Picoseconds Engine::run(Picoseconds limit) {
  while (step(limit)) {
  }
  return now_;
}

std::size_t Engine::pending_ticks() const {
  std::size_t total = 0;
  for (const TickWheel& wheel : wheels_) {
    total += wheel.heap.size();
  }
  return total;
}

void Engine::reset() {
  queue_.clear();
  ticking_.clear();
  wheels_.clear();
  now_ = Picoseconds{0};
  events_executed_ = 0;
}

}  // namespace hybridic::sim
