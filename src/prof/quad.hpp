// QuadProfiler — the in-process equivalent of the QUAD toolset the paper
// uses (§III-B). Applications run their real algorithms against tracked
// buffers; the profiler attributes every read to the function that last
// wrote each byte, producing the quantitative communication graph
// (bytes + unique memory addresses per producer→consumer pair) that drives
// the interconnect design algorithm.
//
// Two attribution modes (docs/MODEL.md §15):
//  - kEager: every record_read scans shadow memory immediately — the
//    original behaviour, still the default for direct profiler use.
//  - kDeferred: record_write/record_read append to a coalesced event trace
//    and attribution runs in finalize(), which can shard the replay by
//    shadow page across a ThreadPool. Because the shards partition the
//    byte address space, per-edge byte and UMA totals are exact integer
//    sums over shards — the CommGraph is byte-identical to an eager run at
//    any shard or thread count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "prof/byte_set.hpp"
#include "prof/comm_graph.hpp"
#include "prof/shadow_memory.hpp"
#include "util/units.hpp"

namespace hybridic {
class ThreadPool;
}  // namespace hybridic

namespace hybridic::prof {

/// When read→last-writer attribution happens (see file comment).
enum class ProfileMode { kEager, kDeferred };

/// Value snapshot of a finished profile: everything the design pipeline
/// consumes downstream of profiling (graph, per-function counters, unique
/// footprints, observed call order) — and nothing it does not (no shadow
/// pages, no event trace). This is the unit the persistent store
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
/// deterministic re-execution of the application. (finalize() may fan the
/// replay out over a pool, but the recording API stays single-threaded.)
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
  void record_write(std::uint64_t addr, std::uint64_t size);

  /// Record a read of [addr, addr+size) by the current function; attributes
  /// each byte to its last writer (in finalize() when deferred). Throws
  /// ConfigError once sealed.
  void record_read(std::uint64_t addr, std::uint64_t size);

  /// Add explicit computational work units to the current function (the
  /// op count used to calibrate kernel compute times).
  void add_work(std::uint64_t units);

  /// Replay the deferred event trace into shadow memory and the comm
  /// graph. No-op in eager mode or when already finalized (idempotent).
  /// With a pool (defaults to the ambient ThreadPool::current()) the
  /// replay is sharded by shadow page and runs in parallel; the resulting
  /// graph is byte-identical either way. After finalize() the profiler
  /// behaves exactly like an eager one (further record_* calls allowed).
  void finalize(ThreadPool* pool = nullptr);

  /// Finish the profile for good: finalize(), keep each function's
  /// unique read/write counts, then free what only recording needs — the
  /// shadow pages (scan_count() is kept), the footprint and UMA byte sets
  /// and the event trace. The profiler is left in the state from_snapshot
  /// builds (mode() aside, which a snapshot does not carry): every
  /// read-side query answers as before, while declare() and record_*
  /// throw. Idempotent. Producers of cached profiles
  /// (ProfiledApp) call this, so a cache entry holds what Algorithm 1
  /// reads and is freed cheaply wherever its last reference drops.
  void seal();

  /// Deferred events currently buffered (0 in eager mode / after
  /// finalize) — exposed for tests and memory accounting.
  [[nodiscard]] std::size_t pending_events() const { return trace_.size(); }

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

  /// Capture the downstream-visible profile. Requires a finalized (or
  /// eager) profiler with no open scopes.
  [[nodiscard]] ProfileSnapshot snapshot() const;

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
  /// bitmap only for pages that are not full; the buffered trace. A sealed
  /// profiler holds only the first group.
  [[nodiscard]] std::uint64_t approx_memory_bytes() const;

private:
  /// One deferred access: [addr, addr+size) by function `fn_op >> 1`;
  /// low bit set = write. Coalescing in record_* merges strictly adjacent
  /// same-function same-op accesses, which never changes attribution:
  /// between two consecutive trace entries no other event exists, so
  /// processing [a,a+s1) then [a+s1,a+s1+s2) equals one [a,a+s1+s2) pass.
  struct TraceEvent {
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
    std::uint32_t fn_op = 0;
  };

  void attribute_read_eager(FunctionId consumer, std::uint64_t addr,
                            std::uint64_t size);
  void replay_serial();
  void replay_sharded(ThreadPool& pool);

  ProfileMode mode_ = ProfileMode::kEager;
  bool finalized_ = false;
  bool sealed_ = false;
  CommGraph graph_;
  ShadowMemory shadow_;
  std::vector<TraceEvent> trace_;
  std::vector<FunctionId> stack_;
  std::vector<PagedByteSet> write_footprint_;
  std::vector<PagedByteSet> read_footprint_;
  /// Unique-footprint counts of a sealed profiler, kept by seal() or
  /// carried over by from_snapshot (the byte sets are gone).
  std::vector<std::uint64_t> sealed_unique_read_;
  std::vector<std::uint64_t> sealed_unique_written_;
  std::vector<FunctionId> first_call_order_;
  std::uint64_t next_addr_ = 0x1000;

  /// Per-edge sets for UMA counting.
  std::map<std::pair<FunctionId, FunctionId>, PagedByteSet> uma_;
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
