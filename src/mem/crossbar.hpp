// Shared-local-memory wiring.
//
// Paper §IV-A1: two kernels that communicate exclusively share their local
// memories through a 2x2 crossbar (201 LUTs / 200 registers, Table II). The
// crossbar switches accesses by address and "does not introduce any
// communication overhead because it does not change the structure of data" —
// so no program times it: its value is that the consumer reads the
// producer's output in place, eliminating the two bus trips
// (Δc = 2·D_ij·θ in the paper's model), and its cost is the LUTs and
// registers core/resource_model charges.
//
// When the consumer kernel has no host traffic at all (D^H = 0), the pair
// shares the BRAM directly and not even the crossbar is instantiated
// (kernel 3 / kernel 4 in the paper's Fig. 2).
#pragma once

#include <cstdint>

namespace hybridic::mem {

/// How a shared-local-memory pair is wired.
enum class SharingStyle : std::uint8_t {
  kCrossbar,  ///< 2x2 crossbar; both kernels still reachable from the host.
  kDirect,    ///< BRAM port shared directly; consumer has no host traffic.
};

}  // namespace hybridic::mem
