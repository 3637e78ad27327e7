// Executors: replay an application schedule on a platform variant and
// measure where the time goes. All variants are thin configurations of the
// shared execution engine (sys/engine/): a ScheduleWalker replays the
// schedule through a VariantModel whose data movement goes through the
// fabric policies (sys/engine/policies.hpp), producing both the per-step
// timings and a structured ExecTrace.
//
//  - run_software: everything on the 400 MHz host (the paper's SW column).
//  - run_baseline: the conventional bus-based accelerator (§III-A): per
//    kernel invocation, DMA-in all input, compute, DMA-out all output,
//    strictly sequentially (Eq. 2 behaviour, but measured on the simulated
//    fabrics rather than assumed).
//  - run_designed: the proposed system (§IV): shared-local-memory pairs
//    move their bytes for free; kernel→kernel traffic travels the NoC
//    overlapped with producer compute; host traffic stays on the bus with
//    optional case-1 half-pipelining; case-2 streaming lets consumers start
//    early; duplicated instances run concurrently. The same executor also
//    runs the NoC-only comparison system (its DesignResult simply has no
//    shared pairs and naive mapping).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_result.hpp"
#include "faults/fault_spec.hpp"
#include "sys/engine/trace.hpp"
#include "sys/platform.hpp"
#include "sys/schedule.hpp"

namespace hybridic::sys {

/// Timing of one executed step (kernel steps only carry fabric phases).
struct StepTiming {
  std::string name;
  bool is_kernel = false;
  double start_seconds = 0.0;
  double done_seconds = 0.0;
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;  ///< Exposed (non-hidden) communication.
};

/// Result of one run.
struct RunResult {
  std::string system_name;
  double total_seconds = 0.0;
  double host_seconds = 0.0;            ///< Host SW functions.
  double kernel_compute_seconds = 0.0;  ///< Σ kernel compute.
  double kernel_comm_seconds = 0.0;     ///< Σ exposed kernel communication.
  std::vector<StepTiming> steps;

  /// Typed event log of the run (compute windows, DMA transfers, NoC
  /// messages, shared-memory handoffs, stalls).
  engine::ExecTrace trace;

  /// Injected-fault and recovery counters (all zero when the run's
  /// PlatformConfig described no faults).
  faults::FaultStats fault_stats{};

  /// Time attributable to the kernels (the paper's "kernels" rows).
  [[nodiscard]] double kernel_seconds() const {
    return kernel_compute_seconds + kernel_comm_seconds;
  }

  /// Per-fabric busy-time/byte attribution, derived from the trace.
  [[nodiscard]] const engine::FabricUsage& fabric_usage(
      engine::Fabric fabric) const {
    return trace.usage(fabric);
  }
};

/// Pure-software reference on the host.
[[nodiscard]] RunResult run_software(const AppSchedule& schedule,
                                     const PlatformConfig& config);

/// Conventional bus-based accelerator (the baseline system).
[[nodiscard]] RunResult run_baseline(const AppSchedule& schedule,
                                     PlatformConfig config);

/// A system with the given custom interconnect design (proposed or
/// NoC-only, depending on how the design was produced).
[[nodiscard]] RunResult run_designed(const AppSchedule& schedule,
                                     const core::DesignResult& design,
                                     PlatformConfig config,
                                     std::string system_name = "proposed");

}  // namespace hybridic::sys
