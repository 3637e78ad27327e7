// Off-chip SDRAM main-memory timing model (the ML510's host memory).
//
// Accesses pay a fixed row/controller latency plus per-beat streaming at the
// memory clock. Requests are serialized through a single channel, which is
// what the PLB bus sees on the far side of the memory controller.
#pragma once

#include <cstdint>
#include <string>

#include "mem/port.hpp"
#include "sim/clock.hpp"
#include "util/units.hpp"

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::mem {

/// SDRAM timing parameters.
struct SdramConfig {
  std::uint32_t width_bytes = 8;   ///< Beats of 64 bits.
  Cycles access_latency{20};       ///< Controller + row activation latency.
};

/// Single-channel SDRAM with fixed access latency and streaming throughput.
class Sdram {
public:
  Sdram(std::string name, const sim::ClockDomain& clock, SdramConfig config);

  /// Reserve a burst of `bytes`; returns time the last beat is delivered.
  Picoseconds access(Picoseconds earliest, Bytes bytes);

  /// Latency-inclusive duration of an isolated burst.
  [[nodiscard]] Picoseconds burst_time(Bytes bytes) const;

  [[nodiscard]] Bytes bytes_transferred() const {
    return channel_.bytes_transferred();
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Enable bit-flip fault injection on this controller (null disables).
  void set_faults(faults::FaultInjector* injector) { faults_ = injector; }

private:
  std::string name_;
  const sim::ClockDomain* clock_;
  SdramConfig config_;
  Port channel_;
  faults::FaultInjector* faults_ = nullptr;
};

}  // namespace hybridic::mem
