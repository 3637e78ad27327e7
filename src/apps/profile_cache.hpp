// Profile memoization cache: QUAD profiling is a deterministic function of
// (application, input, profiling-relevant knobs) — it does not depend on
// the platform/design configuration at all — so a sweep over N design
// points needs exactly one profiling pass per distinct application input.
//
// The cache keys completed ProfiledApp runs (CommGraph + footprint/UMA
// numbers + calibration) by a caller-chosen string encoding exactly those
// knobs (see paper_key/synthetic_key). Entries are shared read-only:
// ProfiledApp only exposes const accessors, and schedule() builds a fresh
// AppSchedule per call, so any number of concurrent design points can hang
// off one entry. A hit re-runs nothing — in particular, zero shadow-memory
// passes (ShadowMemory::scan_count() is asserted unchanged in tests).
//
// Tiering (docs/MODEL.md §15): this class is the in-memory L1. An optional
// ProfileL2 backend (the persistent store in src/store/) sits underneath:
// an L1 miss consults L2 before profiling, and freshly profiled entries are
// published to L2, so warm-path performance survives process restarts and
// is shared across campaign shards. L1 is bounded: set_capacity() installs
// entry-count/byte caps enforced by LRU eviction of ready entries —
// evicted profiles fall back to L2 (or recompute when no L2 is attached).
//
// Concurrency: the first requester of a key computes (or loads from L2);
// every concurrent or later requester blocks on a shared_future and counts
// as a hit. Distinct keys never serialize — the factory runs outside the
// cache lock, and so do the destructors of evicted or cleared entries —
// but a batch submitted app-major can still convoy cold: the first N jobs
// all want key A, one thread computes it, and N-1 block on the future
// instead of starting key B. convoy_waits() counts exactly those blocked
// hits so benches can see the convoy; bench::prewarm_profiles() removes
// it. A factory that throws caches the exception (profiling is
// deterministic, retrying cannot help) and every requester of that key
// sees the same error.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "apps/synthetic.hpp"

namespace hybridic::apps {

/// Second-level profile backend under ProfileCache (implemented by the
/// persistent store). Implementations must be thread-safe; load failures
/// of any kind (missing, truncated, corrupt, stale version) must surface
/// as nullptr — never as an exception — so a damaged store degrades to
/// re-profiling.
class ProfileL2 {
public:
  virtual ~ProfileL2() = default;

  /// The profile stored under `key`, or nullptr on miss.
  [[nodiscard]] virtual std::shared_ptr<const ProfiledApp> load(
      const std::string& key) = 0;

  /// Persist `app` under `key` (best effort).
  virtual void store(const std::string& key, const ProfiledApp& app) = 0;
};

/// Point-in-time cache counters (see the accessors for semantics).
struct ProfileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t convoy_waits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_stores = 0;
  std::uint64_t evictions = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t entries = 0;
};

class ProfileCache {
public:
  using Factory = std::function<ProfiledApp()>;

  /// The profiled run for `key`, computing it with `make` on first request
  /// (after consulting the L2 backend, when attached).
  std::shared_ptr<const ProfiledApp> get(const std::string& key,
                                         const Factory& make);

  /// One of the paper's four applications at its default workload size.
  std::shared_ptr<const ProfiledApp> paper_app(const std::string& name);

  /// A synthetic application; the key encodes every SyntheticConfig knob.
  std::shared_ptr<const ProfiledApp> synthetic_app(
      const SyntheticConfig& config);

  /// Cache key helpers (exposed so tests and tools can pre-warm).
  [[nodiscard]] static std::string paper_key(const std::string& name);
  [[nodiscard]] static std::string synthetic_key(
      const SyntheticConfig& config);

  /// Attach (or detach, with nullptr) the persistent L2 backend.
  void set_l2(std::shared_ptr<ProfileL2> l2);

  /// Bound the in-memory tier: at most `max_entries` cached profiles and
  /// `max_bytes` of approximate resident profile memory; 0 = unbounded
  /// (the default). Over-cap ready entries are evicted least-recently-used
  /// first; in-flight computations are never evicted.
  void set_capacity(std::size_t max_entries, std::uint64_t max_bytes);

  /// Requests served from an existing entry (including waits on an
  /// in-flight computation) / requests that had to compute or hit L2.
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Hits that had to block on another thread's in-flight computation —
  /// the cold-batch convoy. Zero once the cache is warm (or prewarmed).
  [[nodiscard]] std::uint64_t convoy_waits() const {
    return convoy_waits_.load(std::memory_order_relaxed);
  }
  /// L1 misses served by the L2 backend without re-profiling.
  [[nodiscard]] std::uint64_t l2_hits() const {
    return l2_hits_.load(std::memory_order_relaxed);
  }
  /// Freshly profiled entries published to the L2 backend.
  [[nodiscard]] std::uint64_t l2_stores() const {
    return l2_stores_.load(std::memory_order_relaxed);
  }
  /// Ready entries dropped from L1 by the capacity caps.
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Approximate bytes held by ready L1 entries.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  [[nodiscard]] ProfileCacheStats stats() const;

  [[nodiscard]] std::size_t size() const;

  void clear();

private:
  using Entry = std::shared_future<std::shared_ptr<const ProfiledApp>>;

  struct Record {
    Entry future;
    std::uint64_t bytes = 0;  ///< Approximate, 0 until ready.
    bool ready = false;       ///< set_value/set_exception has run.
    std::list<std::string>::iterator lru;  ///< Position in lru_.
  };

  /// Mark `key` ready with `bytes` resident, then enforce the caps.
  /// Called (locked) after the future is fulfilled.
  void publish_locked(const std::string& key, std::uint64_t bytes,
                      std::vector<Entry>& evicted);
  /// Drop least-recently-used ready entries until under the caps, moving
  /// their futures into `evicted`: the caller destroys them after
  /// unlocking, so a profile whose last reference the cache held is freed
  /// outside mutex_.
  void evict_over_caps_locked(std::vector<Entry>& evicted);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Record> entries_;
  std::list<std::string> lru_;  ///< Front = most recently used.
  std::shared_ptr<ProfileL2> l2_;
  std::size_t max_entries_ = 0;   ///< 0 = unbounded.
  std::uint64_t max_bytes_ = 0;   ///< 0 = unbounded.
  std::uint64_t resident_bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> convoy_waits_{0};
  std::atomic<std::uint64_t> l2_hits_{0};
  std::atomic<std::uint64_t> l2_stores_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hybridic::apps
