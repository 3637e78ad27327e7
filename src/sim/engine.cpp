#include "sim/engine.hpp"

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

void Engine::attach_ticking(Ticking& component, const ClockDomain& domain) {
  sim_assert(ticking_ == nullptr,
             "engine already drives a clocked component");
  sim_assert(domain.period().count() > 0,
             "ticking clock domain has a zero period");
  ticking_ = &component;
  tick_domain_ = &domain;
}

void Engine::activate() {
  sim_assert(ticking_ != nullptr, "activate() with no clocked component");
  if (!tick_.has_value()) {
    schedule_tick();
  }
}

void Engine::schedule_tick() {
  // Ticks land strictly after `now` so a component activated at its own edge
  // time still sees causally-ordered inputs.
  tick_ = PendingTick{tick_domain_->align_up(now_ + Picoseconds{1}),
                      queue_.allocate_sequence()};
}

bool Engine::step(Picoseconds limit) {
  const bool tick_next =
      tick_.has_value() &&
      (queue_.empty() || tick_->time < queue_.next_time() ||
       (tick_->time == queue_.next_time() &&
        tick_->sequence < queue_.next_sequence()));
  if (tick_next) {
    if (tick_->time > limit) {
      return false;
    }
    now_ = tick_->time;
    tick_.reset();
    // The component may re-activate itself from inside its own tick.
    if (ticking_->tick(now_) && !tick_.has_value()) {
      schedule_tick();
    }
  } else {
    if (queue_.empty() || queue_.next_time() > limit) {
      return false;
    }
    now_ = queue_.next_time();
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

}  // namespace hybridic::sim
