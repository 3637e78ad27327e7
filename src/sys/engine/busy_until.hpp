// BusyUntil: the sim-free serial-resource model. A serial resource serves
// one reservation at a time, so each reservation starts once both its
// input is ready and the resource is free. The pipelined executor reserves
// its host, bus and kernels in double seconds; the inter-board links
// reserve in integer picoseconds.
#pragma once

#include <algorithm>

namespace hybridic::sys::engine {

/// Busy-until cursor of one serial resource, in time type `Time` (double
/// seconds or Picoseconds).
template <typename Time>
class BusyUntil {
public:
  /// Occupy the resource for `duration`, starting no earlier than
  /// `earliest`; returns the completion time.
  Time reserve(Time earliest, Time duration) {
    free_at_ = std::max(earliest, free_at_) + duration;
    occupancy_ += duration;
    return free_at_;
  }
  /// When the resource next becomes free.
  [[nodiscard]] Time free_at() const { return free_at_; }
  /// Sum of every reserved duration.
  [[nodiscard]] Time occupancy() const { return occupancy_; }

private:
  Time free_at_{};
  Time occupancy_{};
};

}  // namespace hybridic::sys::engine
