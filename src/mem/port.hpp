// Memory-port timing model.
//
// The simulator moves byte counts, not payloads (functional correctness of
// the applications is validated separately by the profiler runtime, which
// executes the real algorithms). A Port serializes transfers through a
// memory port at a fixed width per clock cycle, tracking when the port is
// next free and how many bytes it has moved.
#pragma once

#include <cstdint>
#include <string>

#include "sim/clock.hpp"
#include "util/units.hpp"

namespace hybridic::mem {

/// One physical memory port: `width_bytes` transferred per cycle of `clock`.
class Port {
public:
  Port(std::string name, const sim::ClockDomain& clock,
       std::uint32_t width_bytes);

  /// Reserve the port for a transfer of `bytes` starting no earlier than
  /// `earliest`. Returns the completion time; the port is busy until then.
  Picoseconds reserve(Picoseconds earliest, Bytes bytes);

  /// Time at which the port next becomes free.
  [[nodiscard]] Picoseconds free_at() const { return free_at_; }

  /// Duration a transfer of `bytes` occupies the port (no queueing).
  [[nodiscard]] Picoseconds transfer_time(Bytes bytes) const;

  [[nodiscard]] Bytes bytes_transferred() const { return bytes_transferred_; }
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t width_bytes() const { return width_bytes_; }

private:
  std::string name_;
  const sim::ClockDomain* clock_;
  std::uint32_t width_bytes_;
  Picoseconds free_at_{0};
  Bytes bytes_transferred_{0};
  std::uint64_t transfers_ = 0;
};

}  // namespace hybridic::mem
