// Byte-granular shadow memory: remembers, for every tracked address, which
// function wrote it last. This is the core mechanism behind QUAD-style
// producer→consumer attribution: a read observes the last writer of each
// byte it touches.
//
// Storage is paged (4 KiB of address space per page), with pages grouped
// 64 to a chunk (prof/chunk_directory.hpp): a bulk write or scan looks up
// each chunk once and walks its page array directly. A page records a
// single writer for all of its bytes until a partial write by another
// function splits it into per-byte cells; a whole-page write makes it
// uniform again. Bulk writes and scans therefore cost O(pages) with no
// hash lookup per page on uniform pages, and run detection works
// directly over the raw cell array on split ones. A small direct-mapped
// page cache (slot = page % kCacheSlots), shared by writes and scans,
// serves the accesses that stay inside one page, so the element loops of
// the profiled applications skip even the chunk lookup for the few pages
// they alternate between.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "prof/chunk_directory.hpp"
#include "prof/comm_graph.hpp"

namespace hybridic::prof {

/// Sentinel: byte has never been written by a tracked function.
inline constexpr FunctionId kNoWriter = 0xFFFFFFFFu;

/// Paged sparse map from 64-bit address to last-writer function id.
class ShadowMemory {
public:
  static constexpr std::uint64_t kPageBytes = PageGeometry::kPageBytes;

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
  /// it counts itself, and a scan inside one page fills the page cache.
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
    // A scan inside one page takes it from the page cache; a longer one
    // looks each chunk up once and walks its page array.
    const Chunk* chunk = nullptr;
    std::uint64_t chunk_key = kNoPage;
    std::uint64_t pos = addr;
    while (pos < end) {
      const std::uint64_t offset = pos % kPageBytes;
      const std::uint64_t length = std::min(end - pos, kPageBytes - offset);
      const Page* page = nullptr;
      if (length == size) {
        page = find_page(pos / kPageBytes);
      } else {
        if (pos / kChunkBytes != chunk_key) {
          chunk_key = pos / kChunkBytes;
          chunk = chunks_.find(chunk_key);
        }
        if (chunk != nullptr) {
          page = &chunk->pages[pos / kPageBytes % kChunkPages];
        }
      }
      if (page == nullptr || page->cells == nullptr) {
        // Untouched or uniform page: the in-page span is one segment.
        segment(pos, page == nullptr ? kNoWriter : page->uniform);
      } else {
        const FunctionId* cells = page->cells->data() + offset;
        std::uint64_t i = 0;
        while (i < length) {
          const FunctionId producer = cells[i];
          std::uint64_t j = i + 1;
          while (j < length && cells[j] == producer) {
            ++j;
          }
          segment(pos + i, producer);
          i = j;
        }
      }
      pos += length;
    }
    callback(run_start, end - run_start, run_producer);
  }

  /// Pages ever written (uniform and split).
  [[nodiscard]] std::size_t page_count() const;

  /// Pages currently holding per-byte cells; the others cost no cell
  /// storage.
  [[nodiscard]] std::size_t split_page_count() const { return split_pages_; }

  /// Free every chunk and the page cache (QuadProfiler::seal);
  /// scan_count() is kept, so a sealed profile still reports the passes
  /// that produced it.
  void release();

  /// Number of scan() calls ever made against this shadow. The profile
  /// memoization cache's hit path must leave this untouched (tested), which
  /// is what "a hit does zero shadow-memory passes" means operationally.
  [[nodiscard]] std::uint64_t scan_count() const { return scans_; }

private:
  using Cells = std::array<FunctionId, kPageBytes>;

  static constexpr std::uint64_t kChunkPages = PageGeometry::kChunkPages;
  static constexpr std::uint64_t kChunkBytes = PageGeometry::kChunkBytes;

  /// While `cells` is null every byte of the page was last written by
  /// `uniform` (kNoWriter on a page never written); otherwise `cells`
  /// holds one writer per byte.
  struct Page {
    FunctionId uniform = kNoWriter;
    std::unique_ptr<Cells> cells;
  };

  /// 64 pages; bit i of `written` is set once page i has been written.
  struct Chunk {
    std::uint64_t written = 0;
    std::array<Page, kChunkPages> pages;
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

  /// write, a chunk at a time.
  void write_pages(std::uint64_t addr, std::uint64_t size, FunctionId writer);

  /// Page `key`, or nullptr if it was never written. Only pages that
  /// were written are cached.
  Page* find_page(std::uint64_t key) {
    CacheSlot& cached = slot(key);
    if (cached.key == key) {
      return cached.page;
    }
    Chunk* chunk = chunks_.find(key / kChunkPages);
    const std::uint64_t index = key % kChunkPages;
    if (chunk == nullptr || (chunk->written >> index & 1U) == 0) {
      return nullptr;
    }
    cached = {key, &chunk->pages[index]};
    return cached.page;
  }

  ChunkDirectory<Chunk> chunks_;
  std::size_t split_pages_ = 0;
  std::uint64_t scans_ = 0;
  std::unique_ptr<PageCache> cache_;
};

}  // namespace hybridic::prof
