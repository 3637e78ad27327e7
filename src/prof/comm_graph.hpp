// Quantitative data-communication graph — the output of the profiler.
//
// Matches what the QUAD toolset reports (paper §III-B): for every ordered
// (producer function, consumer function) pair, the exact number of bytes
// transferred and the number of Unique Memory Addresses (UMAs) involved.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace hybridic::prof {

/// Dense function identifier assigned by the profiler.
using FunctionId = std::uint32_t;

/// One directed communication edge.
struct CommEdge {
  FunctionId producer = 0;
  FunctionId consumer = 0;
  Bytes bytes{0};
  std::uint64_t unique_addresses = 0;
};

/// Per-function profile record.
struct FunctionProfile {
  std::string name;
  std::uint64_t work_units = 0;  ///< Explicit op count from instrumentation.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t calls = 0;
};

/// The communication graph: functions + weighted directed edges.
class CommGraph {
public:
  /// Register a function; names must be unique.
  FunctionId add_function(std::string name);

  /// Look up a function id by name; throws ConfigError if unknown.
  [[nodiscard]] FunctionId id_of(const std::string& name) const;
  [[nodiscard]] bool has_function(const std::string& name) const;

  [[nodiscard]] const FunctionProfile& function(FunctionId id) const {
    require(id < functions_.size(), "CommGraph function id out of range");
    return functions_[id];
  }
  [[nodiscard]] FunctionProfile& function_mutable(FunctionId id) {
    require(id < functions_.size(), "CommGraph function id out of range");
    return functions_[id];
  }
  [[nodiscard]] std::uint32_t function_count() const {
    return static_cast<std::uint32_t>(functions_.size());
  }

  /// Running totals of one directed edge.
  struct EdgeTotals {
    std::uint64_t bytes = 0;
    std::uint64_t unique_addresses = 0;
  };

  /// Accumulate `bytes`/`umas` onto edge producer->consumer.
  void add_transfer(FunctionId producer, FunctionId consumer, Bytes bytes,
                    std::uint64_t new_unique_addresses);

  /// The totals of edge producer->consumer, created at zero when absent,
  /// for a caller that adds to one edge many times (the profiler's edge
  /// table). The reference stays valid for the graph's lifetime.
  [[nodiscard]] EdgeTotals& totals(FunctionId producer, FunctionId consumer);

  /// All edges with non-zero byte counts, ordered by (producer, consumer).
  [[nodiscard]] std::vector<CommEdge> edges() const;

  /// Stored edge records, zero-byte ones included (memory accounting).
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Bytes flowing producer->consumer (zero if no edge).
  [[nodiscard]] Bytes bytes_between(FunctionId producer,
                                    FunctionId consumer) const;

  /// Total bytes produced by `f` for consumers in `consumers` set semantics:
  /// convenience reducers used by the kernel model.
  [[nodiscard]] Bytes total_out(FunctionId f) const;
  [[nodiscard]] Bytes total_in(FunctionId f) const;

  /// Human-readable summary table.
  [[nodiscard]] std::string summary() const;

private:
  std::vector<FunctionProfile> functions_;
  std::map<std::string, FunctionId> by_name_;
  /// Node-based: totals() references survive later insertions.
  std::map<std::pair<FunctionId, FunctionId>, EdgeTotals> edges_;
};

}  // namespace hybridic::prof
