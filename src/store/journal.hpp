// Append-only run journal for crash-safe campaigns (docs/MODEL.md §17).
//
// A long campaign records one journal line per completed job, keyed by
// the job's BatchRunner key plus a campaign fingerprint (sweep space +
// engine revision + tier + shard spec). A restarted process replays the
// ledger and skips every job whose record survives — so a SIGKILL'd
// campaign resumes from its last append and still reproduces the
// byte-identical CSV an uninterrupted run would have written.
//
// Like a damaged store entry (docs/MODEL.md §15), a damaged ledger line
// reads as missing, never as wrong data:
//
//  - Each append is one write(2) on an O_APPEND descriptor: a crash —
//    even SIGKILL — can tear at most the final line, never an earlier
//    record.
//  - Every line carries an FNV-1a checksum over (fingerprint, key,
//    payload). A torn, tampered, or otherwise malformed line fails the
//    checksum and is skipped on read: corruption degrades to
//    re-execution of that job, never to a wrong row.
//  - Payloads are newline-escaped so one record is always exactly one
//    line; keys must be line-safe identifiers (no spaces or newlines).
//
// Only setup fails loudly (StoreError, like Store); per-line damage is
// tolerated and counted.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace hybridic::store {

class Journal {
public:
  /// Open `path` for appending, creating it (and missing parent
  /// directories) if needed. Throws StoreError when the path is
  /// unusable.
  explicit Journal(std::string path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one completion record as a single checksummed line. `key`
  /// must be line-safe (no spaces, newlines, or carriage returns —
  /// enforced); `payload` may contain anything. Throws StoreError when
  /// the write fails (a flaky filesystem — callers may retry).
  void append(const std::string& fingerprint, const std::string& key,
              const std::string& payload);

  struct Entry {
    std::string fingerprint;
    std::string key;
    std::string payload;
  };

  struct ReadResult {
    std::vector<Entry> entries;  ///< Valid records, in append order.
    /// Lines that failed parsing or their checksum (torn final line
    /// after a crash, tampering, unrelated garbage).
    std::uint64_t skipped_lines = 0;
  };

  /// Replay the ledger at `path`. A missing file is an empty ledger,
  /// not an error; damaged lines are skipped and counted. Never throws
  /// for content damage.
  [[nodiscard]] static ReadResult read(const std::string& path);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }

private:
  std::string path_;
  int fd_ = -1;
  /// Serializes appends from this process so a retried partial write
  /// can never interleave with another thread's record.
  std::mutex write_mutex_;
  std::atomic<std::uint64_t> appended_{0};
};

}  // namespace hybridic::store
