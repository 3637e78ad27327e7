// Board partitioning — level one of the two-level multi-board design.
//
// The single-board Algorithm 1 assumes every kernel shares one bus, one
// BRAM pool and one mesh. On a multi-FPGA platform the first decision is
// which board each kernel lives on: inter-board serial links are orders of
// magnitude slower than any on-board fabric, so the partition minimizes
// the profiled bytes crossing boards (min-cut on the QUAD multigraph)
// under a balance cap, with a deterministic KL/FM-style refinement.
// Host functions always live on board 0 (the host CPU's board).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/kernel_model.hpp"
#include "prof/comm_graph.hpp"
#include "util/units.hpp"

namespace hybridic::core {

/// Inter-board network shapes (the circuit-switched serial-link
/// topologies of the Multi-FPGA HPCC / b_eff platforms).
enum class BoardTopology : std::uint8_t {
  kChain = 0,  ///< Board i <-> i+1.
  kRing,       ///< Chain plus the wrap-around link.
  kMesh,       ///< Near-square 2-D grid, row-major board ids.
};

[[nodiscard]] const char* to_string(BoardTopology topology);

/// Parse "chain" | "ring" | "mesh"; throws ConfigError otherwise.
[[nodiscard]] BoardTopology parse_board_topology(const std::string& name);

/// Everything the partitioner needs.
struct BoardPartitionInput {
  const prof::CommGraph* graph = nullptr;
  std::vector<KernelSpec> kernels;  ///< L_hw, as handed to Algorithm 1.
  std::uint32_t board_count = 1;
};

/// The level-one decision: which board owns each kernel, plus the byte
/// accounting the conservation oracle checks. All volumes are design
/// volumes (unique bytes, edge_volume()), matching Algorithm 1 and the
/// byte-conservation oracle.
struct BoardPartition {
  std::uint32_t board_count = 1;
  /// Parallel to BoardPartitionInput::kernels.
  std::vector<std::uint32_t> board_of_kernel;
  /// Kernel function id -> owning board (host functions are implicitly
  /// board 0 and not listed).
  std::map<prof::FunctionId, std::uint32_t> board_of_function;
  /// Unique bytes of profiled edges whose endpoints both resolve to board
  /// b (host endpoints resolve to board 0). Indexed by board.
  std::vector<Bytes> intra_board_bytes;
  /// Unique bytes of profiled edges crossing boards.
  Bytes cut_bytes{0};
  /// Unique bytes over all profiled non-self edges; always equals
  /// sum(intra_board_bytes) + cut_bytes.
  Bytes total_bytes{0};
  /// Positive-gain FM moves the refinement applied.
  std::uint32_t refinement_moves = 0;

  /// Owning board of any profiled function (kernels per the partition,
  /// everything else board 0).
  [[nodiscard]] std::uint32_t board_of(prof::FunctionId function) const {
    const auto it = board_of_function.find(function);
    return it == board_of_function.end() ? 0U : it->second;
  }
};

/// Partition the kernels across boards by min-cut on profiled unique
/// bytes: traffic-descending greedy seeding followed by KL/FM-style
/// single-move refinement, both under the balance cap
/// ceil(kernels / boards) per board. Deterministic for fixed input.
/// Throws ConfigError on board_count == 0 or kernels missing from the
/// graph. board_count == 1 returns the trivial all-on-board-0 partition.
[[nodiscard]] BoardPartition partition_boards(const BoardPartitionInput& input);

}  // namespace hybridic::core
