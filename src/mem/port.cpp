#include "mem/port.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hybridic::mem {

Port::Port(std::string name, const sim::ClockDomain& clock,
           std::uint32_t width_bytes)
    : name_(std::move(name)), clock_(&clock), width_bytes_(width_bytes) {
  require(width_bytes > 0, "Port width must be non-zero");
}

Picoseconds Port::transfer_time(Bytes bytes) const {
  const std::uint64_t beats =
      (bytes.count() + width_bytes_ - 1) / width_bytes_;
  return clock_->span(Cycles{beats});
}

Picoseconds Port::reserve(Picoseconds earliest, Bytes bytes) {
  const Picoseconds start =
      clock_->align_up(std::max(earliest, free_at_));
  const Picoseconds done = start + transfer_time(bytes);
  free_at_ = done;
  bytes_transferred_ += bytes;
  ++transfers_;
  return done;
}

}  // namespace hybridic::mem
