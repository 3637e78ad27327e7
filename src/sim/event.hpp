// Event and event-queue primitives for the discrete-event simulation core.
//
// Events store their callback in an InlineAction — a small-buffer-only
// callable wrapper — so scheduling never touches the heap for the capture
// sizes the simulator actually uses (bus grants, DMA chunk continuations,
// NoC delivery notifications, executor send closures). Oversized captures
// fail to compile instead of silently allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace hybridic::sim {

/// Move-only callable with fixed inline storage and no heap fallback.
///
/// Any callable up to `kInlineBytes` (and `alignof(std::max_align_t)`
/// alignment) is stored in place; larger captures are rejected at compile
/// time with a static_assert, which keeps every schedule() allocation-free
/// by construction. Trivially copyable callables (the common case: a few
/// pointers and plain values) move via memcpy with no manager call.
class InlineAction {
public:
  /// Sized for the largest capture in the hot paths: the NoC loopback
  /// delivery closure (a 32-byte std::function callback plus id, bytes and
  /// timestamp) at 56 bytes.
  static constexpr std::size_t kInlineBytes = 64;

  InlineAction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineAction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineAction(F&& fn) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(D) <= kInlineBytes,
                  "callable capture exceeds InlineAction inline storage; "
                  "shrink the capture (e.g. capture a pointer to shared "
                  "state) or raise kInlineBytes");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callable is over-aligned for InlineAction storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "InlineAction requires nothrow-movable callables");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    invoke_ = [](void* self) { (*static_cast<D*>(self))(); };
    if constexpr (!(std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>)) {
      // dst == nullptr → destroy; otherwise relocate (move + destroy src).
      manage_ = [](void* self, void* dst) {
        D* source = static_cast<D*>(self);
        if (dst != nullptr) {
          ::new (dst) D(std::move(*source));
        }
        source->~D();
      };
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

private:
  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(storage_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  void move_from(InlineAction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (other.manage_ != nullptr) {
      other.manage_(other.storage_, storage_);
    } else if (other.invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(void*, void*) = nullptr;
};

/// Scheduled callback. Events at equal times run in scheduling order
/// (FIFO tie-break via a monotonically increasing sequence number), which
/// keeps the simulation fully deterministic.
struct Event {
  Picoseconds time;
  std::uint64_t sequence;
  InlineAction action;
};

/// Min-heap of events ordered by (time, sequence).
///
/// Hand-rolled over std::priority_queue so pop() can move the event out
/// (priority_queue::top() is const and forces a copy) and so sequence
/// numbers can be shared with the engine's pending tick.
class EventQueue {
public:
  /// Schedule `action` at absolute time `when`.
  void schedule(Picoseconds when, InlineAction action);

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event; queue must not be empty.
  [[nodiscard]] Picoseconds next_time() const;

  /// Sequence number of the earliest pending event; queue must not be
  /// empty. Used to interleave deterministically with the pending tick.
  [[nodiscard]] std::uint64_t next_sequence() const;

  /// Pop and return the earliest event (moved out, never copied); queue
  /// must not be empty.
  Event pop();

  /// Hand out the next global sequence number. The engine uses this for
  /// its pending tick so ticks and one-shots share one FIFO ordering.
  std::uint64_t allocate_sequence() { return next_sequence_++; }

private:
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.sequence < b.sequence;
  }

  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Event> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace hybridic::sim
