#include "core/multi_board_design.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace hybridic::core {

prof::CommGraph project_board_graph(const prof::CommGraph& graph,
                                    const BoardPartition& partition,
                                    std::uint32_t board) {
  prof::CommGraph projected;
  for (prof::FunctionId f = 0; f < graph.function_count(); ++f) {
    const prof::FunctionProfile& profile = graph.function(f);
    const prof::FunctionId id = projected.add_function(profile.name);
    prof::FunctionProfile& copy = projected.function_mutable(id);
    copy.work_units = profile.work_units;
    copy.reads = profile.reads;
    copy.writes = profile.writes;
    copy.calls = profile.calls;
  }
  for (const prof::CommEdge& edge : graph.edges()) {
    const bool self = edge.producer == edge.consumer;
    if (self || (partition.board_of(edge.producer) == board &&
                 partition.board_of(edge.consumer) == board)) {
      projected.add_transfer(edge.producer, edge.consumer, edge.bytes,
                             edge.unique_addresses);
    }
  }
  return projected;
}

MultiBoardDesign design_multi_board(const MultiBoardDesignInput& input) {
  require(input.base.graph != nullptr, "design input has no profile graph");
  require(input.board_count >= 1, "board_count must be >= 1");

  MultiBoardDesign design;

  BoardPartitionInput part;
  part.graph = input.base.graph;
  part.kernels = input.base.kernels;
  part.board_count = input.board_count;
  design.partition = partition_boards(part);

  if (input.board_count == 1) {
    // Degenerate case: the single-board path, bit for bit.
    design.board_graphs.push_back(
        std::make_unique<prof::CommGraph>(*input.base.graph));
    design.board_kernels.push_back(input.base.kernels);
    design.boards.push_back(design_interconnect(input.base));
    return design;
  }

  for (std::uint32_t b = 0; b < input.board_count; ++b) {
    design.board_graphs.push_back(std::make_unique<prof::CommGraph>(
        project_board_graph(*input.base.graph, design.partition, b)));
    std::vector<KernelSpec> kernels;
    for (std::size_t k = 0; k < input.base.kernels.size(); ++k) {
      if (design.partition.board_of_kernel[k] == b) {
        kernels.push_back(input.base.kernels[k]);
      }
    }
    design.board_kernels.push_back(kernels);
    if (kernels.empty()) {
      design.boards.emplace_back();  // Idle board: nothing to design.
      continue;
    }
    DesignInput board_input = input.base;
    board_input.graph = design.board_graphs.back().get();
    board_input.kernels = std::move(kernels);
    design.boards.push_back(design_interconnect(board_input));
  }

  // Cut edges, in the graph's canonical (producer, consumer) order.
  for (const prof::CommEdge& edge : input.base.graph->edges()) {
    if (edge.producer == edge.consumer) {
      continue;
    }
    const std::uint32_t pb = design.partition.board_of(edge.producer);
    const std::uint32_t cb = design.partition.board_of(edge.consumer);
    if (pb != cb) {
      design.cut_edges.push_back(
          {edge.producer, edge.consumer, pb, cb, edge_volume(edge)});
    }
  }
  return design;
}

}  // namespace hybridic::core
