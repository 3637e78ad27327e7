// PagedByteSet: a sparse set of 64-bit byte addresses stored as paged
// bitmaps, used for the profiler's unique-footprint and UMA (unique memory
// address) accounting. Replaces per-byte unordered_set inserts with
// word-granular bitmap updates, and popcount gives the exact number of
// freshly inserted addresses — so counts match a byte-by-byte insert loop
// bit for bit.
//
// Pages live in 64-page chunks (prof/chunk_directory.hpp). A page is
// absent, *partial* (it owns a 512-byte bitmap) or *full* (it holds every
// address and owns no bitmap), and a chunk keeps its full and its partial
// pages as two 64-bit masks. A run of whole pages is therefore a mask
// operation: one popcount counts the absent pages it fills, and the only
// per-page work is popcounting the bitmaps of the partial pages it fills
// and drops. A bulk insert costs O(its chunks) plus its partial first and
// last page. Partial inserts into a full page add nothing. A small
// direct-mapped cache (slot = page % kCacheSlots) remembers each recently
// touched page's bitmap, or that it is full, so the element-by-element
// inserts of the paper apps, whose stencil loops alternate between a
// handful of pages, skip the chunk lookup (docs/MODEL.md §10).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>

#include "prof/chunk_directory.hpp"

namespace hybridic::prof {

/// Sparse address set with O(1) size() and bulk range insertion.
class PagedByteSet {
public:
  static constexpr std::uint64_t kPageBytes = PageGeometry::kPageBytes;

  /// Insert every address in [addr, addr+size); returns how many were not
  /// yet present (the "fresh" count UMA accounting needs).
  std::uint64_t insert_range(std::uint64_t addr, std::uint64_t size) {
    const std::uint64_t key = addr / kPageBytes;
    const std::uint64_t offset = addr % kPageBytes;
    // An element: part of one cached page.
    if (const CacheSlot& cached = slot(key);
        cached.key == key && offset + size < kPageBytes) {
      if (cached.bitmap == nullptr) {
        return 0;  // Full page.
      }
      const std::uint64_t fresh = set_bits(*cached.bitmap, offset, size);
      count_ += fresh;
      return fresh;
    }
    return insert_pages(addr, size);
  }

  /// Insert a single address; returns true if it was fresh.
  bool insert(std::uint64_t addr) { return insert_range(addr, 1) != 0; }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const Chunk* chunk = chunks_.find(addr / kChunkBytes);
    if (chunk == nullptr) {
      return false;
    }
    const std::uint64_t index = addr / kPageBytes % kChunkPages;
    if ((chunk->full >> index & 1U) != 0) {
      return true;
    }
    if ((chunk->partial >> index & 1U) == 0) {
      return false;
    }
    const std::uint64_t offset = addr % kPageBytes;
    return ((*chunk->bitmaps[index])[offset / 64] >> (offset % 64) & 1U) != 0;
  }

  /// Number of distinct addresses inserted.
  [[nodiscard]] std::uint64_t size() const { return count_; }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Pages holding at least one address, full or not.
  [[nodiscard]] std::size_t page_count() const {
    std::size_t pages = 0;
    chunks_.for_each([&pages](const Chunk& chunk) {
      pages += static_cast<std::size_t>(
          std::popcount(chunk.full | chunk.partial));
    });
    return pages;
  }

  /// Pages that still own a bitmap (kPageBytes/8 bytes each); full pages
  /// own none.
  [[nodiscard]] std::size_t bitmap_page_count() const {
    std::size_t pages = 0;
    chunks_.for_each([&pages](const Chunk& chunk) {
      pages += static_cast<std::size_t>(std::popcount(chunk.partial));
    });
    return pages;
  }

private:
  using Page = std::array<std::uint64_t, kPageBytes / 64>;

  static constexpr std::uint64_t kChunkPages = PageGeometry::kChunkPages;
  static constexpr std::uint64_t kChunkBytes = PageGeometry::kChunkBytes;

  /// 64 pages: bit i of `full` or `partial` describes page i, and a
  /// partial page's bitmap is bitmaps[i]. No page is in both masks.
  struct Chunk {
    std::uint64_t full = 0;
    std::uint64_t partial = 0;
    std::array<std::unique_ptr<Page>, kChunkPages> bitmaps;
  };

  /// Fewer slots than the shadow's page cache: a profiler holds two sets
  /// per function and one per edge, and the element loops of the paper
  /// apps touch only a few pages of each.
  static constexpr std::size_t kCacheSlots = 8;
  /// Above every page index (addresses are 64-bit, pages 4 KiB).
  static constexpr std::uint64_t kNoPage = UINT64_MAX;

  /// A cached page: its bitmap, or nullptr when the page is full.
  struct CacheSlot {
    std::uint64_t key = kNoPage;
    Page* bitmap = nullptr;
  };

  CacheSlot& slot(std::uint64_t key) { return cache_[key % kCacheSlots]; }

  /// insert_range, a partial page or a chunk's run of whole pages at a
  /// time.
  std::uint64_t insert_pages(std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    std::uint64_t pos = addr;
    const std::uint64_t end = addr + size;
    while (pos < end) {
      const std::uint64_t offset = pos % kPageBytes;
      if (offset == 0 && end - pos >= kPageBytes) {
        const std::uint64_t first = pos / kPageBytes % kChunkPages;
        const std::uint64_t count =
            std::min((end - pos) / kPageBytes, kChunkPages - first);
        fresh += fill_pages(pos / kChunkBytes, first, count);
        pos += count * kPageBytes;
        continue;
      }
      const std::uint64_t in_page = std::min(end - pos, kPageBytes - offset);
      if (Page* page = bitmap_for(pos / kPageBytes); page != nullptr) {
        fresh += set_bits(*page, offset, in_page);
      }
      pos += in_page;
    }
    count_ += fresh;
    return fresh;
  }

  /// The bitmap of page `key`, allocated zeroed on first touch; nullptr
  /// when the page is full.
  Page* bitmap_for(std::uint64_t key) {
    CacheSlot& cached = slot(key);
    if (cached.key == key) {
      return cached.bitmap;
    }
    Chunk& chunk = chunks_.get(key / kChunkPages);
    const std::uint64_t index = key % kChunkPages;
    const std::uint64_t bit = 1ULL << index;
    if (((chunk.full | chunk.partial) & bit) == 0) {
      chunk.bitmaps[index] = std::make_unique<Page>();  // Zeroed.
      chunk.partial |= bit;
    }
    cached = {key, chunk.bitmaps[index].get()};
    return cached.bitmap;
  }

  /// Make pages [first, first+count) of chunk `key` full; returns how many
  /// of their addresses were absent.
  std::uint64_t fill_pages(std::uint64_t key, std::uint64_t first,
                           std::uint64_t count) {
    Chunk& chunk = chunks_.get(key);
    const std::uint64_t mask = PageGeometry::page_mask(first, count);
    std::uint64_t fresh =
        kPageBytes * static_cast<std::uint64_t>(
                         std::popcount(mask & ~(chunk.full | chunk.partial)));
    for (std::uint64_t dropped = mask & chunk.partial; dropped != 0;
         dropped &= dropped - 1) {
      std::unique_ptr<Page>& bitmap =
          chunk.bitmaps[static_cast<std::size_t>(std::countr_zero(dropped))];
      std::uint64_t present = 0;
      for (const std::uint64_t word : *bitmap) {
        present += static_cast<std::uint64_t>(std::popcount(word));
      }
      fresh += kPageBytes - present;
      bitmap.reset();
    }
    chunk.full |= mask;
    chunk.partial &= ~mask;
    // Cache the run's last pages as full, as filling page by page would:
    // they are consecutive, so every slot a page of the run maps to now
    // names a page of the run, and no slot keeps a dropped bitmap.
    const std::uint64_t end_page = key * kChunkPages + first + count;
    for (std::uint64_t page = end_page - std::min<std::uint64_t>(
                                             count, kCacheSlots);
         page < end_page; ++page) {
      slot(page) = {page, nullptr};
    }
    return fresh;
  }

  /// Set `count` bits starting at bit `offset`; returns how many flipped
  /// from 0 to 1.
  static std::uint64_t set_bits(Page& page, std::uint64_t offset,
                                std::uint64_t count) {
    std::uint64_t fresh = 0;
    std::uint64_t bit = offset;
    const std::uint64_t end = offset + count;
    while (bit < end) {
      const std::uint64_t word = bit / 64;
      const std::uint64_t low = bit % 64;
      const std::uint64_t span = std::min<std::uint64_t>(64 - low, end - bit);
      const std::uint64_t mask =
          span == 64 ? ~0ULL : ((1ULL << span) - 1) << low;
      // An element is inserted whole, so its bits are all present or all
      // fresh; only a mixed word pays the popcount, which builds without
      // a popcount instruction make a library call.
      if (const std::uint64_t added = mask & ~page[word]; added != 0) {
        fresh += added == mask
                     ? span
                     : static_cast<std::uint64_t>(std::popcount(added));
        page[word] |= mask;
      }
      bit += span;
    }
    return fresh;
  }

  ChunkDirectory<Chunk> chunks_;
  std::array<CacheSlot, kCacheSlots> cache_{};
  std::uint64_t count_ = 0;
};

}  // namespace hybridic::prof
