#include "core/board_partition.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace hybridic::core {

namespace {

/// Seeds the greedy placement's tie-breaks; the partition is a pure
/// function of (graph, kernels, board_count).
constexpr std::uint64_t kPartitionSeed = 1;
/// Cap on full FM refinement passes (each pass applies at most one
/// positive-gain move per kernel).
constexpr std::uint32_t kMaxRefinementPasses = 8;

}  // namespace

const char* to_string(BoardTopology topology) {
  switch (topology) {
    case BoardTopology::kChain:
      return "chain";
    case BoardTopology::kRing:
      return "ring";
    case BoardTopology::kMesh:
      return "mesh";
  }
  return "?";
}

BoardTopology parse_board_topology(const std::string& name) {
  if (name == "chain") {
    return BoardTopology::kChain;
  }
  if (name == "ring") {
    return BoardTopology::kRing;
  }
  if (name == "mesh") {
    return BoardTopology::kMesh;
  }
  throw ConfigError("unknown board topology '" + name +
                    "' (expected chain, ring or mesh)");
}

BoardPartition partition_boards(const BoardPartitionInput& input) {
  require(input.graph != nullptr, "partition input has no profile graph");
  require(input.board_count >= 1, "board_count must be >= 1");
  const prof::CommGraph& graph = *input.graph;
  const std::uint32_t boards = input.board_count;
  const std::size_t n = input.kernels.size();

  BoardPartition result;
  result.board_count = boards;
  result.board_of_kernel.assign(n, 0);
  result.intra_board_bytes.assign(boards, Bytes{0});

  // Kernel function set + index lookup. Kernel specs must name profiled
  // functions (same contract as Algorithm 1).
  std::map<prof::FunctionId, std::size_t> kernel_index;
  for (std::size_t k = 0; k < n; ++k) {
    const KernelSpec& spec = input.kernels[k];
    if (spec.function >= graph.function_count()) {
      throw ConfigError{"kernel spec '" + spec.name +
                        "' names an unprofiled function"};
    }
    kernel_index[spec.function] = k;
  }
  require(kernel_index.size() == n, "duplicate kernel functions in L_hw");

  // Symmetric kernel<->kernel affinity in unique bytes, plus each
  // kernel's host affinity (host functions are pinned to board 0, so
  // host traffic pulls a kernel towards board 0 exactly like a kernel
  // pinned there would).
  std::vector<std::vector<std::uint64_t>> affinity(
      n, std::vector<std::uint64_t>(n, 0));
  std::vector<std::uint64_t> host_affinity(n, 0);
  std::vector<std::uint64_t> traffic(n, 0);  // Total per-kernel volume.
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.producer == edge.consumer) {
      continue;  // Self-edges are local, never cross anything.
    }
    const std::uint64_t volume = edge_volume(edge).count();
    const auto p = kernel_index.find(edge.producer);
    const auto c = kernel_index.find(edge.consumer);
    if (p != kernel_index.end() && c != kernel_index.end()) {
      affinity[p->second][c->second] += volume;
      affinity[c->second][p->second] += volume;
      traffic[p->second] += volume;
      traffic[c->second] += volume;
    } else if (p != kernel_index.end()) {
      host_affinity[p->second] += volume;
      traffic[p->second] += volume;
    } else if (c != kernel_index.end()) {
      host_affinity[c->second] += volume;
      traffic[c->second] += volume;
    }
  }

  const std::size_t cap =
      boards == 0 ? n : (n + boards - 1) / boards;  // ceil(n / boards).
  std::vector<std::size_t> load(boards, 0);
  std::vector<std::uint32_t>& board_of = result.board_of_kernel;

  if (boards > 1 && n > 0) {
    // ---- Greedy seeding: place kernels in traffic-descending order on
    // the board maximizing already-placed affinity (cut-minimizing),
    // under the balance cap. Ties break by a seeded hash, then by kernel
    // index, so every run is identical.
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k) {
      order[k] = k;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (traffic[a] != traffic[b]) {
                  return traffic[a] > traffic[b];
                }
                const std::uint64_t ha = util::splitmix64(kPartitionSeed ^ a);
                const std::uint64_t hb = util::splitmix64(kPartitionSeed ^ b);
                if (ha != hb) {
                  return ha < hb;
                }
                return a < b;
              });
    std::vector<bool> placed(n, false);
    for (const std::size_t k : order) {
      std::uint32_t best = 0;
      std::int64_t best_gain = -1;
      for (std::uint32_t b = 0; b < boards; ++b) {
        if (load[b] >= cap) {
          continue;
        }
        std::int64_t gain =
            b == 0 ? static_cast<std::int64_t>(host_affinity[k]) : 0;
        for (std::size_t other = 0; other < n; ++other) {
          if (placed[other] && board_of[other] == b) {
            gain += static_cast<std::int64_t>(affinity[k][other]);
          }
        }
        if (gain > best_gain) {
          best_gain = gain;
          best = b;
        }
      }
      board_of[k] = best;
      load[best] += 1;
      placed[k] = true;
    }

    // ---- KL/FM-style refinement: repeatedly apply the best
    // positive-gain single-kernel move (gain = cut bytes saved by moving
    // kernel k to board b) that respects the balance cap. Scanning in
    // (kernel, board) order with strict improvement keeps it
    // deterministic; passes are capped so it always terminates.
    for (std::uint32_t pass = 0; pass < kMaxRefinementPasses; ++pass) {
      bool moved = false;
      for (std::size_t k = 0; k < n; ++k) {
        // External affinity of k towards each board.
        std::vector<std::int64_t> pull(boards, 0);
        pull[0] += static_cast<std::int64_t>(host_affinity[k]);
        for (std::size_t other = 0; other < n; ++other) {
          if (other != k) {
            pull[board_of[other]] +=
                static_cast<std::int64_t>(affinity[k][other]);
          }
        }
        const std::uint32_t from = board_of[k];
        std::uint32_t best = from;
        std::int64_t best_gain = 0;
        for (std::uint32_t b = 0; b < boards; ++b) {
          if (b == from || load[b] >= cap) {
            continue;
          }
          const std::int64_t gain = pull[b] - pull[from];
          if (gain > best_gain) {
            best_gain = gain;
            best = b;
          }
        }
        if (best != from) {
          load[from] -= 1;
          load[best] += 1;
          board_of[k] = best;
          result.refinement_moves += 1;
          moved = true;
        }
      }
      if (!moved) {
        break;
      }
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    result.board_of_function[input.kernels[k].function] = board_of[k];
  }

  // ---- Byte accounting over every profiled non-self edge: host
  // endpoints resolve to board 0, so host<->off-board-kernel traffic is
  // cut traffic too (it rides the serial links).
  for (const prof::CommEdge& edge : graph.edges()) {
    if (edge.producer == edge.consumer) {
      continue;
    }
    const Bytes volume = edge_volume(edge);
    const std::uint32_t pb = result.board_of(edge.producer);
    const std::uint32_t cb = result.board_of(edge.consumer);
    result.total_bytes += volume;
    if (pb == cb) {
      result.intra_board_bytes[pb] += volume;
    } else {
      result.cut_bytes += volume;
    }
  }
  return result;
}

}  // namespace hybridic::core
