#include "mem/bram.hpp"

#include "faults/injector.hpp"
#include "util/error.hpp"

namespace hybridic::mem {

Bram::Bram(std::string name, const sim::ClockDomain& clock, Bytes capacity,
           std::uint32_t port_width_bytes)
    : name_(std::move(name)),
      capacity_(capacity),
      ports_{Port{name_ + ".A", clock, port_width_bytes},
             Port{name_ + ".B", clock, port_width_bytes}} {
  require(capacity.count() > 0, "BRAM capacity must be non-zero");
}

Picoseconds Bram::access(BramPort port, Picoseconds earliest, Bytes bytes) {
  if (faults_ != nullptr &&
      faults_->draw(faults::SiteKind::kBram, fault_site_,
                    faults_->spec().bram_bitflip_rate)) {
    ++faults_->stats().mem_bitflips;
    faults_->record(faults::FaultKind::kBramBitFlip, earliest.seconds(),
                    bytes.count(),
                    name_ + ": bit flip in a " +
                        std::to_string(bytes.count()) + " B access");
  }
  return ports_[static_cast<std::size_t>(port)].reserve(earliest, bytes);
}

Picoseconds Bram::transfer_time(Bytes bytes) const {
  return ports_[0].transfer_time(bytes);
}

Bytes Bram::bytes_through(BramPort port) const {
  return ports_[static_cast<std::size_t>(port)].bytes_transferred();
}

}  // namespace hybridic::mem
