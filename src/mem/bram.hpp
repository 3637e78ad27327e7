// Dual-port Block RAM local memory.
//
// Paper §IV-A1: "When implemented on FPGAs, most accelerator systems use
// block RAM (BRAM) as the local memory. BRAM in modern FPGA usually has two
// ports." One port usually serves the host/system bus, the other the kernel
// core; when a third client is attached (e.g. a NoC adapter plus host plus
// kernel, as for the duplicated huff_ac_dec kernels in Fig. 6) a multiplexer
// shares a physical port.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "mem/port.hpp"
#include "sim/clock.hpp"
#include "util/units.hpp"

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::mem {

/// Which physical BRAM port a client is attached to.
enum class BramPort : std::uint8_t { kA = 0, kB = 1 };

/// A dual-port BRAM with a fixed capacity and per-port width.
class Bram {
public:
  Bram(std::string name, const sim::ClockDomain& clock, Bytes capacity,
       std::uint32_t port_width_bytes);

  /// Reserve a transfer on the given port; returns completion time.
  Picoseconds access(BramPort port, Picoseconds earliest, Bytes bytes);

  [[nodiscard]] Picoseconds transfer_time(Bytes bytes) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes bytes_through(BramPort port) const;

  /// Enable bit-flip fault injection; `site` identifies this BRAM's RNG
  /// stream (the owning kernel-instance index). Null disables.
  void set_faults(faults::FaultInjector* injector, std::uint64_t site) {
    faults_ = injector;
    fault_site_ = site;
  }

private:
  std::string name_;
  Bytes capacity_;
  std::array<Port, 2> ports_;
  faults::FaultInjector* faults_ = nullptr;
  std::uint64_t fault_site_ = 0;
};

}  // namespace hybridic::mem
