// Two-level multi-board interconnect design.
//
// Level one partitions the profiled kernel communication multigraph
// across boards by min-cut on bytes (board_partition.hpp); level two runs
// the *unchanged* single-board Algorithm 1 per board on a projected graph
// that keeps only that board's intra-board edges. Edges crossing boards
// are returned separately: the execution engine moves them over the
// inter-board serial links (the InterBoardLink fabric policy), never over
// any on-board fabric, so their bytes are neither lost nor double
// counted. board_count == 1 degenerates to exactly one call of
// design_interconnect on the original input.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/board_partition.hpp"
#include "core/design_result.hpp"
#include "core/interconnect_design.hpp"
#include "prof/comm_graph.hpp"

namespace hybridic::core {

/// A profiled edge whose endpoints live on different boards.
struct InterBoardEdge {
  prof::FunctionId producer = 0;
  prof::FunctionId consumer = 0;
  std::uint32_t producer_board = 0;
  std::uint32_t consumer_board = 0;
  Bytes bytes{0};  ///< Design volume (unique bytes, edge_volume()).
};

/// Everything the two-level designer needs: the single-board DesignInput
/// (graph, L_hw, theta, overheads, ablations) plus the board dimension.
struct MultiBoardDesignInput {
  DesignInput base;
  std::uint32_t board_count = 1;
};

/// The two-level design: the partition, one per-board DesignResult (from
/// the unchanged Algorithm 1 over that board's projected graph and
/// kernels), and the inter-board edge list.
struct MultiBoardDesign {
  BoardPartition partition;
  /// Board-local projections of the profiled graph (same function ids;
  /// only intra-board edges). unique_ptr keeps addresses stable: the
  /// per-board schedules and designs point into them.
  std::vector<std::unique_ptr<prof::CommGraph>> board_graphs;
  /// Per-board L_hw subsets, in the original kernel order.
  std::vector<std::vector<KernelSpec>> board_kernels;
  /// Per-board Algorithm 1 output (default-constructed for boards that
  /// own no kernels).
  std::vector<DesignResult> boards;
  /// Profiled edges crossing boards, ordered by (producer, consumer).
  std::vector<InterBoardEdge> cut_edges;

  [[nodiscard]] std::uint32_t board_count() const {
    return partition.board_count;
  }
};

/// Project `graph` onto one board: every function is kept (ids are
/// stable), but only edges whose endpoints both resolve to `board` keep
/// their transfers (host endpoints resolve to board 0).
[[nodiscard]] prof::CommGraph project_board_graph(
    const prof::CommGraph& graph, const BoardPartition& partition,
    std::uint32_t board);

/// Run the two-level design. With board_count == 1 the result holds the
/// trivial partition and boards[0] == design_interconnect(input.base),
/// bit for bit — the single-board path is provably preserved.
[[nodiscard]] MultiBoardDesign design_multi_board(
    const MultiBoardDesignInput& input);

}  // namespace hybridic::core
