// Execution-timeline rendering: turns a RunResult's per-step timings and
// its structured ExecTrace into ASCII Gantt charts and a CSV trace, for
// inspecting where a system variant spends its time (which communication
// got hidden, which did not, and on which fabric).
#pragma once

#include <string>

#include "sys/executor.hpp"

namespace hybridic::sys {

/// Options for the ASCII renderers.
struct TimelineOptions {
  std::uint32_t width_chars = 72;  ///< Chart area width.
  bool show_host_steps = true;
};

/// Render `result` as an ASCII Gantt chart: one row per step, '#' for the
/// kernel-compute window and '.' for exposed communication.
[[nodiscard]] std::string render_timeline(const RunResult& result,
                                          const TimelineOptions& options = {});

/// Render the run's ExecTrace as one lane per fabric: every lane shows
/// where its fabric was busy ('#' compute, '=' DMA, '>' NoC/crossbar
/// transfers, '*' shared-memory handoffs) over the run's span, followed by
/// each fabric's busy time and traffic. Empty fabrics are omitted.
[[nodiscard]] std::string render_trace_lanes(
    const RunResult& result, const TimelineOptions& options = {});

/// Event-level CSV of the trace:
/// event,kind,fabric,step,start_s,end_s,bytes,label (chronological).
[[nodiscard]] std::string trace_csv(const engine::ExecTrace& trace);

}  // namespace hybridic::sys
