// Byte-granular shadow memory: remembers, for every tracked address, which
// function wrote it last. This is the core mechanism behind QUAD-style
// producer→consumer attribution: a read observes the last writer of each
// byte it touches.
//
// Storage is paged (4 KiB of address space per page) and all hot
// operations work a page at a time: at most one hash lookup per page
// instead of one per byte, and a small direct-mapped page cache (slot =
// page % kCacheSlots) that writes and scans share skips even that for the
// few pages the profiled applications' loops alternate between. A page
// records a single writer for all of its bytes until a partial write by
// another function splits it into per-byte cells; a whole-page write
// makes it uniform again. Bulk writes and scans therefore cost O(pages)
// on uniform pages, and run detection works directly over the raw cell
// array on split ones.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "prof/comm_graph.hpp"

namespace hybridic::prof {

/// Sentinel: byte has never been written by a tracked function.
inline constexpr FunctionId kNoWriter = 0xFFFFFFFFu;

/// Paged sparse map from 64-bit address to last-writer function id.
class ShadowMemory {
public:
  static constexpr std::uint64_t kPageBytes = 4096;

  /// Record that `writer` wrote [addr, addr+size).
  void write(std::uint64_t addr, std::uint64_t size, FunctionId writer) {
    const std::uint64_t key = addr / kPageBytes;
    const std::uint64_t offset = addr % kPageBytes;
    // An element: part of one cached page that it cannot split.
    if (const CacheSlot& cached = slot(key);
        cached.key == key && offset + size < kPageBytes) {
      Page& page = *cached.page;
      if (page.cells != nullptr) {
        std::fill_n(page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
                    size, writer);
        return;
      }
      if (page.uniform == writer) {
        return;
      }
    }
    write_pages(addr, size, writer);
  }

  /// Last writer of a single byte (kNoWriter if untouched).
  [[nodiscard]] FunctionId last_writer(std::uint64_t addr) const;

  /// Visit [addr, addr+size) as maximal runs of a single producer:
  /// callback(run_start, run_length, producer). Runs with kNoWriter are
  /// reported too so the caller can decide how to treat untouched bytes.
  /// Runs spanning page boundaries (and untouched pages) are merged, so the
  /// emitted run sequence is identical to a byte-by-byte walk. Not const:
  /// it counts itself and fills the page cache.
  template <typename Callback>
  void scan(std::uint64_t addr, std::uint64_t size, Callback&& callback) {
    ++scans_;
    if (size == 0) {
      return;
    }
    const std::uint64_t end = addr + size;
    std::uint64_t run_start = addr;
    FunctionId run_producer = kNoWriter;
    bool have_run = false;
    // Continue the current run, or close it and open one at `start`.
    const auto segment = [&](std::uint64_t start, FunctionId producer) {
      if (!have_run) {
        run_start = start;
        run_producer = producer;
        have_run = true;
      } else if (producer != run_producer) {
        callback(run_start, start - run_start, run_producer);
        run_start = start;
        run_producer = producer;
      }
    };
    std::uint64_t pos = addr;
    while (pos < end) {
      const std::uint64_t offset = pos % kPageBytes;
      const std::uint64_t chunk = std::min(end - pos, kPageBytes - offset);
      const Page* page = find_page(pos / kPageBytes);
      if (page == nullptr || page->cells == nullptr) {
        // Untouched or uniform page: the in-page span is one segment.
        segment(pos, page == nullptr ? kNoWriter : page->uniform);
      } else {
        const FunctionId* cells = page->cells->data() + offset;
        std::uint64_t i = 0;
        while (i < chunk) {
          const FunctionId producer = cells[i];
          std::uint64_t j = i + 1;
          while (j < chunk && cells[j] == producer) {
            ++j;
          }
          segment(pos + i, producer);
          i = j;
        }
      }
      pos += chunk;
    }
    callback(run_start, end - run_start, run_producer);
  }

  /// Pages ever written (uniform and split).
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

  /// Pages currently holding per-byte cells; the others cost no cell
  /// storage.
  [[nodiscard]] std::size_t split_page_count() const { return split_pages_; }

  /// Free every page and the page cache (QuadProfiler::seal);
  /// scan_count() is kept, so a sealed profile still reports the passes
  /// that produced it.
  void release();

  /// Number of scan() calls ever made against this shadow. The profile
  /// memoization cache's hit path must leave this untouched (tested), which
  /// is what "a hit does zero shadow-memory passes" means operationally.
  [[nodiscard]] std::uint64_t scan_count() const { return scans_; }

private:
  using Cells = std::array<FunctionId, kPageBytes>;

  /// While `cells` is null every byte of the page was last written by
  /// `uniform`; otherwise `cells` holds one writer per byte.
  struct Page {
    FunctionId uniform = kNoWriter;
    std::unique_ptr<Cells> cells;
  };

  static constexpr std::size_t kCacheSlots = 16;
  /// Above every page index (addresses are 64-bit, pages 4 KiB).
  static constexpr std::uint64_t kNoPage = UINT64_MAX;

  struct CacheSlot {
    std::uint64_t key = kNoPage;
    Page* page = nullptr;
  };
  using PageCache = std::array<CacheSlot, kCacheSlots>;

  /// The cache slot of page `key`; the cache is allocated on first use,
  /// so a shadow that never records (a restored profile) owns none.
  CacheSlot& slot(std::uint64_t key) {
    if (cache_ == nullptr) {
      cache_ = std::make_unique<PageCache>();
    }
    return (*cache_)[key % kCacheSlots];
  }

  /// Page `key`, created untouched if absent.
  Page& page_for(std::uint64_t key);

  /// write, page by page.
  void write_pages(std::uint64_t addr, std::uint64_t size, FunctionId writer);

  /// Page `key`, or nullptr if it was never written. Only pages that
  /// exist are cached.
  Page* find_page(std::uint64_t key) {
    CacheSlot& cached = slot(key);
    if (cached.key == key) {
      return cached.page;
    }
    const auto it = pages_.find(key);
    if (it == pages_.end()) {
      return nullptr;
    }
    cached = {key, &it->second};
    return cached.page;
  }

  /// Node-based map: cached page pointers survive rehashing.
  std::unordered_map<std::uint64_t, Page> pages_;
  std::size_t split_pages_ = 0;
  std::uint64_t scans_ = 0;
  std::unique_ptr<PageCache> cache_;
};

}  // namespace hybridic::prof
