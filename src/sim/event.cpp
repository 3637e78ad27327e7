#include "sim/event.hpp"

#include "util/error.hpp"

namespace hybridic::sim {

void EventQueue::schedule(Picoseconds when, InlineAction action) {
  heap_.push_back(Event{when, next_sequence_++, std::move(action)});
  sift_up(heap_.size() - 1);
}

Picoseconds EventQueue::next_time() const {
  sim_assert(!heap_.empty(), "next_time() on empty EventQueue");
  return heap_.front().time;
}

std::uint64_t EventQueue::next_sequence() const {
  sim_assert(!heap_.empty(), "next_sequence() on empty EventQueue");
  return heap_.front().sequence;
}

Event EventQueue::pop() {
  sim_assert(!heap_.empty(), "pop() on empty EventQueue");
  Event event = std::move(heap_.front());
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return event;
}

void EventQueue::sift_up(std::size_t index) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!earlier(heap_[index], heap_[parent])) {
      break;
    }
    std::swap(heap_[index], heap_[parent]);
    index = parent;
  }
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t count = heap_.size();
  while (true) {
    const std::size_t left = 2 * index + 1;
    if (left >= count) {
      break;
    }
    const std::size_t right = left + 1;
    std::size_t smallest = index;
    if (earlier(heap_[left], heap_[smallest])) {
      smallest = left;
    }
    if (right < count && earlier(heap_[right], heap_[smallest])) {
      smallest = right;
    }
    if (smallest == index) {
      break;
    }
    std::swap(heap_[index], heap_[smallest]);
    index = smallest;
  }
}

}  // namespace hybridic::sim
