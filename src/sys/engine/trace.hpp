// Structured execution traces: every system variant executed by the engine
// records typed events (compute windows, DMA transfers, NoC messages,
// shared-memory handoffs, stalls) instead of only flat per-step timings.
// The trace powers per-fabric time/byte attribution in RunResult, the
// trace-lane ASCII timeline, and the Chrome-trace/Perfetto JSON exporter.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace hybridic::sys::engine {

/// The resource an event occupies (or, for stalls, waits on).
enum class Fabric : std::uint8_t {
  kHost = 0,       ///< The 400 MHz host processor.
  kKernel,         ///< The kernel compute fabric.
  kBus,            ///< PLB bus + DMA block transfers.
  kNoc,            ///< The wormhole mesh NoC.
  kSharedMemory,   ///< Shared local-memory (direct or crossbar) handoffs.
  kCrossbar,       ///< The full-crossbar comparison fabric.
  kInterBoard,     ///< Inter-board serial links (multi-board platforms).
};
inline constexpr std::size_t kFabricCount = 7;

[[nodiscard]] const char* fabric_name(Fabric fabric);

/// What happened during an event's [start, end) window.
enum class EventKind : std::uint8_t {
  kCompute = 0,    ///< A host or kernel compute window.
  kDmaIn,          ///< SDRAM -> local memory block transfer.
  kDmaOut,         ///< Local memory -> SDRAM block transfer.
  kNocTransfer,    ///< A kernel->kernel message over the NoC or crossbar.
  kSharedHandoff,  ///< Zero-copy shared-local-memory handoff (instant).
  kStall,          ///< Time spent waiting on a dependency (not busy time).
  kFault,          ///< An injected fault (corruption, stall, bit flip).
  kRetry,          ///< A recovery retry (NoC retransmit, bus chunk retry).
  kReroute,        ///< Fault-aware reroute or NoC->bus edge degradation.
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// Annotation kinds explain gaps or overlay diagnostics; they occupy no
/// fabric and are excluded from FabricUsage, so fault-free attribution is
/// unchanged by their existence.
[[nodiscard]] constexpr bool is_annotation(EventKind kind) {
  return kind == EventKind::kStall || kind == EventKind::kFault ||
         kind == EventKind::kRetry || kind == EventKind::kReroute;
}

/// One typed event of an execution.
struct TraceEvent {
  EventKind kind = EventKind::kCompute;
  Fabric fabric = Fabric::kHost;
  std::uint32_t step_index = 0;   ///< Schedule step this belongs to.
  std::uint64_t bytes = 0;        ///< Payload moved (0 for compute/stall).
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::string label;
};

/// Accumulated busy time and traffic of one fabric.
struct FabricUsage {
  double busy_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
};

/// Append-only event log with per-fabric aggregation. Events arrive in
/// completion order (simulation callbacks), not start order — consumers
/// that need chronology sort via `chronological()`.
class ExecTrace {
public:
  void record(TraceEvent event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Busy-time/byte attribution of one fabric. Annotation events (stalls,
  /// faults, retries, reroutes) are excluded: they occupy no fabric.
  [[nodiscard]] const FabricUsage& usage(Fabric fabric) const {
    return usage_[static_cast<std::size_t>(fabric)];
  }

  /// Event indices sorted by (start, end, label) — a stable chronology for
  /// rendering and export.
  [[nodiscard]] std::vector<std::size_t> chronological() const;

private:
  std::vector<TraceEvent> events_;
  std::array<FabricUsage, kFabricCount> usage_{};
};

}  // namespace hybridic::sys::engine

namespace hybridic::faults {
class FaultInjector;
}  // namespace hybridic::faults

namespace hybridic::sys::engine {

/// Merge a fault injector's recorded events into `trace` as zero-duration
/// annotation events (kFault/kRetry on the fabric the fault hit), so
/// injected faults and recoveries show up in trace lanes, the CSV and the
/// Chrome-trace export.
void append_fault_events(ExecTrace& trace,
                         const faults::FaultInjector& injector);

}  // namespace hybridic::sys::engine
