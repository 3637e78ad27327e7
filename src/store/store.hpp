// Persistent content-addressed artifact store (docs/MODEL.md §15).
//
// Expensive artifacts — communication profiles, analytic tier estimates —
// are deterministic functions of their canonical key (application or
// SyntheticConfig knobs, platform fingerprint, engine revision). The store
// maps such keys to payload blobs on disk so warm-path performance
// survives process restarts and is shared across concurrently running
// campaign shards:
//
//  - Content addressing: the object file name is a 128-bit hash of the
//    full key; the key itself is embedded in the entry and verified on
//    read, so a hash collision degrades to a miss, never to wrong data.
//  - Versioning: every entry records kEngineRevision; entries written by
//    a different revision read as misses (and keys embed the revision
//    too, so stale objects are simply never addressed).
//  - Atomic publication: put() writes to a unique temp file and renames
//    into place — readers see either nothing or a complete entry, and
//    concurrent writers of the same key race benignly (last rename wins;
//    both wrote identical bytes).
//  - Corruption tolerance: a truncated, tampered, or wrong-format entry
//    fails its structural checks or payload checksum and reads as a miss.
//    get() never throws for bad entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/hash.hpp"

namespace hybridic::store {

/// Bump whenever profiling, the analytic tier, or a codec changes in a
/// way that invalidates previously stored artifacts.
inline constexpr std::uint32_t kEngineRevision = 2;

/// The store root is unusable (cannot create directories, not writable).
/// Only setup fails loudly; per-entry damage degrades to misses.
class StoreError : public std::runtime_error {
public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

struct StoreStats {
  std::uint64_t puts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt_entries = 0;  ///< Present but failed validation.
};

using util::fnv1a64;

class Store {
public:
  /// Open (creating if needed) a store rooted at `root`. Layout:
  ///   root/objects/<2 hex>/<32 hex>   entries
  ///   root/tmp/                       in-flight writes
  explicit Store(std::string root);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Publish `payload` under `key` (atomic write + rename). Throws
  /// StoreError when the filesystem rejects the write.
  void put(const std::string& key, const std::string& payload);

  /// The payload stored under `key`, or nullopt on miss — where "miss"
  /// includes absent, truncated, corrupt, wrong-key (hash collision), and
  /// wrong-engine-revision entries.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] const std::string& root() const { return root_; }

  /// 32-hex-char content address of `key`.
  [[nodiscard]] static std::string object_name(const std::string& key);

  /// Absolute path the entry for `key` lives at.
  [[nodiscard]] std::string object_path(const std::string& key) const;

  [[nodiscard]] StoreStats stats() const;

private:
  std::string root_;
  std::atomic<std::uint64_t> tmp_seq_{0};
  mutable std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> corrupt_{0};
};

}  // namespace hybridic::store
