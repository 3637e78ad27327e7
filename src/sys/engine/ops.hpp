// Pending-operation bookkeeping around the event-driven fabrics — the one
// copy of the orchestration every executor used to duplicate. Operations
// carry labels so a never-completing op can be diagnosed by name, and
// completions are recorded into the run's ExecTrace.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bus/dma.hpp"
#include "sys/engine/trace.hpp"
#include "sys/platform.hpp"
#include "util/error.hpp"

namespace hybridic::sys::engine {

// Kept apart from to_picoseconds (util/units.hpp): llround and the clamp at
// 0 round some inputs differently, and the designed model's overheads and
// the watchdog depend on this rounding.
inline Picoseconds from_seconds(double seconds) {
  return Picoseconds{static_cast<std::uint64_t>(
      std::llround(std::max(0.0, seconds) * 1e12))};
}

inline Bytes scale_bytes(Bytes bytes, double share) {
  return Bytes{static_cast<std::uint64_t>(
      std::llround(static_cast<double>(bytes.count()) * share))};
}

/// Completion marker for an asynchronous fabric operation.
struct Pending {
  bool done = false;
  Picoseconds at{0};
  std::string label;  ///< Names the op in deadlock diagnostics and traces.
};

/// Issue a DMA block transfer at (or after) `when`; zero bytes complete
/// immediately at the requested time (no fabric involvement, no event).
/// On completion the transfer is recorded into `trace` (when non-null) as
/// a dma-in/dma-out event attributed to `step_index`.
inline void issue_dma(Platform& platform, Picoseconds when,
                      bus::DmaDirection dir, Bytes bytes, mem::Bram& bram,
                      Pending& op, std::string label,
                      ExecTrace* trace = nullptr,
                      std::uint32_t step_index = 0) {
  op.label = std::move(label);
  if (bytes.count() == 0) {
    op.done = true;
    op.at = when;
    return;
  }
  const Picoseconds at = std::max(when, platform.engine().now());
  platform.engine().schedule_at(
      at, [&platform, dir, bytes, &bram, &op, trace, step_index, at] {
        platform.dma().transfer(
            dir, bytes, bram,
            [&op, trace, dir, bytes, step_index, at](Picoseconds done_at) {
              op.done = true;
              op.at = done_at;
              if (trace != nullptr) {
                trace->record({dir == bus::DmaDirection::kMemToLocal
                                   ? EventKind::kDmaIn
                                   : EventKind::kDmaOut,
                               Fabric::kBus, step_index, bytes.count(),
                               at.seconds(), done_at.seconds(), op.label});
              }
            });
      });
}

/// Run the simulation until every op completed, bounded by the platform's
/// watchdog limit. If ops remain the failure is a structured
/// SimTimeoutError naming the stuck operations and the simulated time —
/// both for a drained event queue (deadlock) and for a watchdog expiry
/// (livelock / runaway retries) — so one hung run fails its batch job
/// instead of wedging the process.
inline void wait_all(Platform& platform, const std::vector<Pending*>& ops) {
  const Picoseconds limit =
      from_seconds(platform.config().watchdog_seconds);
  const bool satisfied = platform.engine().run_until(
      [&ops] {
        for (const Pending* op : ops) {
          if (!op->done) {
            return false;
          }
        }
        return true;
      },
      limit);
  if (satisfied) {
    return;
  }
  std::vector<std::string> stuck_ops;
  std::string stuck;
  for (const Pending* op : ops) {
    if (!op->done) {
      stuck_ops.push_back(op->label.empty() ? std::string{"<unlabeled>"}
                                            : op->label);
      stuck += stuck.empty() ? "'" : ", '";
      stuck += stuck_ops.back();
      stuck += "'";
    }
  }
  const double at = platform.engine().now().seconds();
  const bool watchdog_expired = platform.engine().has_pending();
  const std::string what =
      watchdog_expired
          ? "fabric operation " + stuck + " never completed; watchdog of " +
                std::to_string(platform.config().watchdog_seconds) +
                " s simulated time expired at t=" + std::to_string(at) + " s"
          : "fabric operation " + stuck +
                " never completed; simulation drained at t=" +
                std::to_string(at) + " s (deadlock?)";
  throw SimTimeoutError{what, std::move(stuck_ops), at, watchdog_expired};
}

}  // namespace hybridic::sys::engine
