// Multi-board execution: replay one application schedule across N boards.
//
// Each board runs the unchanged single-board DesignedModel over its
// projected sub-schedule (its kernels plus, on board 0, every host step).
// The one ScheduleWalker replays the global schedule in program order
// through a multi-board VariantModel that dispatches each step to its
// owning board's model. Cut edges move over the InterBoardLinkPolicy:
// when a producer step finishes, its cross-board bytes ride the serial
// links (store-and-forward, each directed link a BusyUntil resource) and
// the consumer board's cursor is lifted to the arrival time. With
// board_count == 1 everything delegates verbatim to run_designed, so
// single-board results are bit-identical to the single-board engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_board_design.hpp"
#include "sys/executor.hpp"
#include "sys/platform.hpp"
#include "sys/schedule.hpp"

namespace hybridic::sys {

/// Per-board sub-schedules of `schedule` under the design's partition:
/// board b keeps its own kernel steps (spec indices remapped into the
/// board's spec list) and board 0 additionally keeps every host step.
/// Each returned schedule's graph points into design.board_graphs — the
/// design must outlive the schedules.
[[nodiscard]] std::vector<AppSchedule> board_schedules(
    const AppSchedule& schedule, const core::MultiBoardDesign& design);

/// One multi-board run.
struct MultiBoardRunResult {
  RunResult run;  ///< Global program-order result (merged trace).
  std::vector<double> board_end_seconds;  ///< Per-board completion.
  std::uint64_t inter_board_transfers = 0;
  std::uint64_t inter_board_bytes = 0;
  double inter_board_busy_seconds = 0.0;
  std::uint64_t board_link_reroutes = 0;
};

/// Execute `schedule` on the multi-board platform. Throws ConfigError on
/// board-count mismatches or a disconnected inter-board network.
[[nodiscard]] MultiBoardRunResult run_designed_multi(
    const AppSchedule& schedule, const core::MultiBoardDesign& design,
    const MultiBoardConfig& config,
    std::string system_name = "proposed-multi");

}  // namespace hybridic::sys
