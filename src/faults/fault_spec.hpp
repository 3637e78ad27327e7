// Fault-injection campaign description and run statistics.
//
// A FaultSpec travels inside PlatformConfig; when it describes no faults the
// platform builds no injector and every fault hook stays a null pointer, so
// fault-free runs remain byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <vector>

namespace hybridic::faults {

/// A permanently failed bidirectional link, named by the two adjacent node
/// (or, between boards, board) ids it connects — direction-free so the
/// spec does not depend on the NoC port enumeration.
struct LinkDown {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Recovery mechanisms the run may enable. All default off/harmless; they
/// only change behaviour when the matching fault class is injected.
struct ResilienceSpec {
  /// CRC-check NoC packets at the destination adapter and request bounded
  /// retransmission of corrupted ones.
  bool noc_crc = false;
  /// Retransmission budget per packet before it is delivered as-corrupted.
  /// Attempt k waits 4 << (k-1) NoC cycles before the packet is
  /// re-injected.
  std::uint32_t noc_max_retransmits = 8;
  /// Re-issued bus chunks per DMA transfer before a failed chunk is
  /// accepted as corrupted.
  std::uint32_t bus_retry_budget = 4;
  /// When dead links disconnect a kernel pair on the mesh, degrade that
  /// edge to a bus-DMA round trip instead of black-holing the transfer.
  bool noc_degrade_to_bus = true;
};

/// One campaign point: which faults to inject, at what rates, with which
/// recovery mechanisms enabled. Rates are per-event Bernoulli probabilities
/// (per injected flit, per bus chunk, per memory access).
struct FaultSpec {
  /// Root seed; every injection site derives an independent stream from it.
  std::uint64_t seed = 0;
  /// Probability that an injected NoC flit is corrupted in transit.
  double flit_corruption_rate = 0.0;
  /// Permanently failed mesh links (must name adjacent nodes).
  std::vector<LinkDown> dead_links;
  /// Probability that a DMA bus chunk completes corrupted.
  double bus_error_rate = 0.0;
  /// Probability that a granted bus master is stalled by the arbiter.
  double bus_stall_rate = 0.0;
  /// Length of one injected arbiter stall, in bus cycles.
  std::uint32_t bus_stall_cycles = 16;
  /// Probability that an SDRAM access suffers a bit flip.
  double sdram_bitflip_rate = 0.0;
  /// Probability that a BRAM access suffers a bit flip.
  double bram_bitflip_rate = 0.0;
  ResilienceSpec resilience;

  /// Every fault class at one per-event `rate`, with CRC retransmission
  /// on: one point of a degradation sweep.
  [[nodiscard]] static FaultSpec at_rate(double rate, std::uint64_t seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.flit_corruption_rate = rate;
    spec.bus_error_rate = rate;
    spec.bus_stall_rate = rate;
    spec.sdram_bitflip_rate = rate;
    spec.bram_bitflip_rate = rate;
    spec.resilience.noc_crc = true;
    return spec;
  }

  /// True when any fault class is actually configured; the platform only
  /// builds a FaultInjector (and wires any hook) when this holds.
  [[nodiscard]] bool any_faults() const {
    return flit_corruption_rate > 0.0 || !dead_links.empty() ||
           bus_error_rate > 0.0 || bus_stall_rate > 0.0 ||
           sdram_bitflip_rate > 0.0 || bram_bitflip_rate > 0.0;
  }
};

/// Aggregate counters of everything injected and every recovery taken.
/// Copied onto RunResult so campaigns can plot degradation curves.
struct FaultStats {
  std::uint64_t flits_corrupted = 0;
  std::uint64_t packets_retransmitted = 0;
  std::uint64_t retransmit_give_ups = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t bus_errors = 0;
  std::uint64_t bus_retries = 0;
  std::uint64_t bus_stalls = 0;
  std::uint64_t mem_bitflips = 0;
  /// Payload bytes delivered corrupted (NoC packets past their retransmit
  /// budget or with CRC off, plus bus chunks past their retry budget).
  std::uint64_t corrupted_bytes = 0;
  /// Kernel edges degraded from NoC to a bus-DMA round trip.
  std::uint64_t degraded_edges = 0;
  /// NoC source/destination pairs whose route detours around dead links.
  std::uint64_t noc_reroutes = 0;
  /// Inter-board transfers whose board route detours around a dead
  /// serial link (multi-board runs only).
  std::uint64_t board_link_reroutes = 0;
};

}  // namespace hybridic::faults
