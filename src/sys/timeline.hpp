// Execution-timeline rendering: turns a RunResult's per-step timings and
// its structured ExecTrace into 72-column ASCII Gantt charts, for
// inspecting where a system variant spends its time (which communication
// got hidden, which did not, and on which fabric).
#pragma once

#include <string>

#include "sys/executor.hpp"

namespace hybridic::sys {

/// Render `result` as an ASCII Gantt chart: one row per step, '#' for the
/// kernel-compute window and '.' for exposed communication.
[[nodiscard]] std::string render_timeline(const RunResult& result);

/// Render the run's ExecTrace as one lane per fabric: every lane shows
/// where its fabric was busy ('#' compute, '=' DMA, '>' NoC/crossbar
/// transfers, '*' shared-memory handoffs) over the run's span, followed by
/// each fabric's busy time and traffic. Empty fabrics are omitted.
[[nodiscard]] std::string render_trace_lanes(const RunResult& result);

}  // namespace hybridic::sys
