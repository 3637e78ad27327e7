// QuadProfiler — the in-process equivalent of the QUAD toolset the paper
// uses (§III-B). Applications run their real algorithms against tracked
// buffers; the profiler attributes every read to the function that last
// wrote each byte, producing the quantitative communication graph
// (bytes + unique memory addresses per producer→consumer pair) that drives
// the interconnect design algorithm.
//
// Attribution handles one address run at a time (docs/MODEL.md §10): a
// write run makes its function the last writer of each byte and grows the
// writer's footprint; a read run grows the reader's footprint and adds
// each maximal same-producer span to that producer→consumer edge's bytes
// and UMA set. Two modes feed it:
//  - kEager: every record_* call is attributed on the spot — the
//    per-access reference, and the default for direct profiler use.
//  - kDeferred: what the applications use. An access that extends the
//    pending run (same function, same direction, exactly adjacent, at
//    most UINT32_MAX bytes in all) only grows it; any other access first
//    attributes the pending run, then starts the next one. Runs are
//    attributed in program order and no other access falls between two
//    coalesced ones, so attributing [a,a+s1) then [a+s1,a+s1+s2) equals
//    one [a,a+s1+s2) pass: the profile is kEager's, byte for byte.
//    finalize(), seal() and snapshot() attribute the last run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "prof/byte_set.hpp"
#include "prof/comm_graph.hpp"
#include "prof/shadow_memory.hpp"
#include "util/units.hpp"

namespace hybridic::prof {

/// When read→last-writer attribution happens (see file comment).
enum class ProfileMode { kEager, kDeferred };

/// Value snapshot of a finished profile: everything the design pipeline
/// consumes downstream of profiling (graph, per-function counters, unique
/// footprints, observed call order) — and nothing it does not (no shadow
/// pages, no byte sets). This is the unit the persistent store
/// serializes; QuadProfiler::from_snapshot rebuilds an equivalent, sealed
/// profiler.
struct ProfileSnapshot {
  struct Function {
    std::string name;
    std::uint64_t work_units = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t calls = 0;
    std::uint64_t unique_bytes_read = 0;
    std::uint64_t unique_bytes_written = 0;
  };
  struct Edge {
    FunctionId producer = 0;
    FunctionId consumer = 0;
    std::uint64_t bytes = 0;
    std::uint64_t unique_addresses = 0;
  };
  std::vector<Function> functions;
  std::vector<Edge> edges;  ///< (producer, consumer) order, non-zero bytes.
  std::vector<FunctionId> call_order;
};

/// The profiling runtime. Single-threaded by design — a profiled run is a
/// deterministic re-execution of the application.
class QuadProfiler {
public:
  explicit QuadProfiler(ProfileMode mode = ProfileMode::kEager)
      : mode_(mode) {}
  QuadProfiler(const QuadProfiler&) = delete;
  QuadProfiler& operator=(const QuadProfiler&) = delete;

  /// Declare a function; returns its id. Names must be unique. Throws
  /// ConfigError once sealed.
  FunctionId declare(std::string name);

  /// Enter/leave the dynamic scope of a function. Nested calls allowed.
  void enter(FunctionId function);
  void leave();

  /// Currently executing function; throws if no scope is open.
  [[nodiscard]] FunctionId current() const;

  /// Reserve `bytes` of tracked virtual address space.
  [[nodiscard]] std::uint64_t allocate(std::uint64_t bytes,
                                       std::uint64_t alignment = 64);

  /// Record a write of [addr, addr+size) by the current function. Throws
  /// ConfigError once sealed.
  void record_write(std::uint64_t addr, std::uint64_t size) {
    if (!extend_pending(addr, size, true)) {
      record(addr, size, true);
    }
  }

  /// Record a read of [addr, addr+size) by the current function; attributes
  /// each byte to its last writer (once its run ends, when deferred).
  /// Throws ConfigError once sealed.
  void record_read(std::uint64_t addr, std::uint64_t size) {
    if (!extend_pending(addr, size, false)) {
      record(addr, size, false);
    }
  }

  /// Add explicit computational work units to the current function (the
  /// op count used to calibrate kernel compute times).
  void add_work(std::uint64_t units);

  /// Attribute the pending run; from then on the profiler behaves exactly
  /// like an eager one (further record_* calls allowed). No-op in eager
  /// mode; idempotent.
  void finalize();

  /// Finish the profile for good: finalize(), keep each function's
  /// unique read/write counts, then free what only recording needs — the
  /// shadow pages and page cache (scan_count() is kept), the footprint
  /// byte sets and the edge table. The profiler is left in the state
  /// from_snapshot builds (mode() aside, which a snapshot does not
  /// carry): every read-side query answers as before, while declare() and
  /// record_* throw. Idempotent. Producers of cached profiles
  /// (ProfiledApp) call this, so a cache entry holds what Algorithm 1
  /// reads and is freed cheaply wherever its last reference drops.
  void seal();

  [[nodiscard]] ProfileMode mode() const { return mode_; }

  [[nodiscard]] const CommGraph& graph() const { return graph_; }
  [[nodiscard]] const ShadowMemory& shadow() const { return shadow_; }

  /// Depth of the current call stack (0 outside any function).
  [[nodiscard]] std::size_t call_depth() const { return stack_.size(); }

  // ---- Memory-footprint analysis (QUAD's flat memory profile). ----

  /// Unique bytes ever written by `function` (its produced footprint).
  [[nodiscard]] std::uint64_t unique_bytes_written(
      FunctionId function) const;

  /// Unique bytes ever read by `function` (its consumed footprint).
  [[nodiscard]] std::uint64_t unique_bytes_read(FunctionId function) const;

  /// Flat per-function memory profile: calls, work, raw and unique bytes.
  [[nodiscard]] std::string memory_report() const;

  /// Functions in first-invocation order — the observed program order the
  /// schedule builder uses (functions never entered are absent).
  [[nodiscard]] const std::vector<FunctionId>& call_order() const {
    return first_call_order_;
  }

  // ---- Persistence (src/store/ profile codec). ----

  /// Capture the downstream-visible profile, after attributing the
  /// pending run. Requires no open scopes.
  [[nodiscard]] ProfileSnapshot snapshot();

  /// Rebuild a sealed profiler from a snapshot. The result serves every
  /// read-side query (graph, footprint counts, call order, memory_report)
  /// with the snapshotted values, but owns no shadow pages: further
  /// record_* calls throw — a restored profile is a finished artifact, not
  /// a session.
  [[nodiscard]] static std::unique_ptr<QuadProfiler> from_snapshot(
      const ProfileSnapshot& snap);

  /// True after seal() and for profilers rebuilt via from_snapshot().
  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Rough resident footprint in bytes — the L1 cache's eviction
  /// accounting. Charges the graph, names and footprint counts; shadow
  /// pages, with cell storage only for split ones; byte-set pages, with a
  /// bitmap only for pages that are not full. A sealed profiler holds only
  /// the first group.
  [[nodiscard]] std::uint64_t approx_memory_bytes() const;

private:
  /// Accesses by one function in one direction over [addr, addr+size).
  struct Run {
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    FunctionId function = kNoWriter;  ///< kNoWriter: no run.
    bool write = false;
  };

  /// One producer→consumer pair that reads have reached: its UMA set and
  /// its totals in graph_.
  struct EdgeSlot {
    PagedByteSet uma;
    CommGraph::EdgeTotals* totals = nullptr;
  };

  /// The longest run coalescing builds.
  static constexpr std::uint64_t kMaxRun = UINT32_MAX;

  /// Grow the pending run by [addr, addr+size) if the current function
  /// continues it in the same direction; false otherwise (always in eager
  /// mode, after finalize() and once sealed, when no run is pending).
  bool extend_pending(std::uint64_t addr, std::uint64_t size, bool write) {
    if (stack_.empty() || stack_.back() != pending_.function ||
        pending_.write != write || pending_.addr + pending_.size != addr ||
        pending_.size + size > kMaxRun) {
      return false;
    }
    pending_.size += size;
    return true;
  }

  /// An access that does not extend the pending run.
  void record(std::uint64_t addr, std::uint64_t size, bool write);
  void attribute(const Run& run);
  void attribute_pending();
  /// Open the slot of a pair that row `consumer` of edge_slots_ lacks.
  void add_edge_slot(std::vector<std::unique_ptr<EdgeSlot>>& row,
                     FunctionId producer, FunctionId consumer);

  ProfileMode mode_ = ProfileMode::kEager;
  bool finalized_ = false;
  bool sealed_ = false;
  CommGraph graph_;
  ShadowMemory shadow_;
  Run pending_;
  std::vector<FunctionId> stack_;
  std::vector<PagedByteSet> write_footprint_;
  std::vector<PagedByteSet> read_footprint_;
  /// edge_slots_[consumer][producer], rows grown on demand.
  std::vector<std::vector<std::unique_ptr<EdgeSlot>>> edge_slots_;
  /// Unique-footprint counts of a sealed profiler, kept by seal() or
  /// carried over by from_snapshot (the byte sets are gone).
  std::vector<std::uint64_t> sealed_unique_read_;
  std::vector<std::uint64_t> sealed_unique_written_;
  std::vector<FunctionId> first_call_order_;
  std::uint64_t next_addr_ = 0x1000;
};

/// RAII scope for QuadProfiler::enter/leave.
class ScopedFunction {
public:
  ScopedFunction(QuadProfiler& profiler, FunctionId function)
      : profiler_(&profiler) {
    profiler_->enter(function);
  }
  ~ScopedFunction() { profiler_->leave(); }

  ScopedFunction(const ScopedFunction&) = delete;
  ScopedFunction& operator=(const ScopedFunction&) = delete;

private:
  QuadProfiler* profiler_;
};

}  // namespace hybridic::prof
