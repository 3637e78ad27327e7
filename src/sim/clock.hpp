// Clock domains. The platform mixes a 400 MHz host, 100 MHz kernels/bus and
// a 150 MHz NoC (paper Table II); each domain converts between its local
// cycle count and the global picosecond timeline.
#pragma once

#include <string>

#include "util/units.hpp"

namespace hybridic::sim {

/// A named clock domain with a fixed frequency. The period is computed
/// once: every edge and span conversion reads it, and recomputing it costs
/// a 64-bit division.
class ClockDomain {
public:
  ClockDomain(std::string name, Frequency frequency)
      : name_(std::move(name)),
        frequency_(frequency),
        period_(frequency.period()) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Frequency frequency() const { return frequency_; }
  [[nodiscard]] Picoseconds period() const { return period_; }

  /// Absolute time of cycle edge `n` (edge 0 at t=0).
  [[nodiscard]] Picoseconds edge(std::uint64_t n) const {
    return Picoseconds{n * period().count()};
  }

  /// Index of the first cycle edge at or after `t`.
  [[nodiscard]] std::uint64_t next_edge_index(Picoseconds t) const {
    const std::uint64_t p = period().count();
    return (t.count() + p - 1) / p;
  }

  /// Absolute time of the first cycle edge at or after `t`.
  [[nodiscard]] Picoseconds align_up(Picoseconds t) const {
    return edge(next_edge_index(t));
  }

  /// Duration of `n` cycles in this domain.
  [[nodiscard]] Picoseconds span(Cycles n) const {
    return Picoseconds{n.count() * period().count()};
  }

private:
  std::string name_;
  Frequency frequency_;
  Picoseconds period_;
};

}  // namespace hybridic::sim
