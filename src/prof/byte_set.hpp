// PagedByteSet: a sparse set of 64-bit byte addresses stored as paged
// bitmaps, used for the profiler's unique-footprint and UMA (unique memory
// address) accounting. Replaces per-byte unordered_set inserts with
// word-granular bitmap updates: an N-byte range costs O(N/64) word ops and
// at most one hash lookup per 4 KiB page, and popcount gives the exact
// number of freshly inserted addresses — so counts match a byte-by-byte
// insert loop bit for bit.
//
// A whole-page insert makes the page *full*: its key stays present but it
// owns no bitmap, so the bulk accesses of synthetic designs cost one hash
// node per page and no 512-byte bitmap. Partial inserts into a full page
// add nothing. A small direct-mapped cache (slot = page % kCacheSlots)
// remembers each recently touched page's bitmap, or that it is full, so
// the element-by-element inserts of the paper apps, whose stencil loops
// alternate between a handful of pages, skip the hash lookup
// (docs/MODEL.md §10).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace hybridic::prof {

/// Sparse address set with O(1) size() and bulk range insertion.
class PagedByteSet {
public:
  static constexpr std::uint64_t kPageBytes = 4096;

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
    const auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end()) {
      return false;
    }
    if (it->second == nullptr) {
      return true;  // Full page.
    }
    const std::uint64_t offset = addr % kPageBytes;
    return ((*it->second)[offset / 64] >> (offset % 64) & 1U) != 0;
  }

  /// Number of distinct addresses inserted.
  [[nodiscard]] std::uint64_t size() const { return count_; }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Pages holding at least one address, full or not.
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

  /// Pages that still own a bitmap (kPageBytes/8 bytes each); full pages
  /// own none.
  [[nodiscard]] std::size_t bitmap_page_count() const {
    return static_cast<std::size_t>(std::count_if(
        pages_.begin(), pages_.end(),
        [](const auto& entry) { return entry.second != nullptr; }));
  }

private:
  using Page = std::array<std::uint64_t, kPageBytes / 64>;

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

  /// insert_range, page by page.
  std::uint64_t insert_pages(std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    std::uint64_t pos = addr;
    const std::uint64_t end = addr + size;
    while (pos < end) {
      const std::uint64_t offset = pos % kPageBytes;
      const std::uint64_t in_page = std::min(end - pos, kPageBytes - offset);
      if (in_page == kPageBytes) {
        fresh += fill_page(pos / kPageBytes);
      } else if (Page* page = bitmap_for(pos / kPageBytes); page != nullptr) {
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
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) {
      it->second = std::make_unique<Page>();  // Value-initialized: zeros.
    }
    cached = {key, it->second.get()};
    return cached.bitmap;
  }

  /// Make page `key` full; returns how many of its addresses were absent.
  std::uint64_t fill_page(std::uint64_t key) {
    CacheSlot& cached = slot(key);
    if (cached.key == key && cached.bitmap == nullptr) {
      return 0;
    }
    cached = {key, nullptr};
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) {
      return kPageBytes;  // A new key with no bitmap is a full page.
    }
    if (it->second == nullptr) {
      return 0;
    }
    std::uint64_t present = 0;
    for (const std::uint64_t word : *it->second) {
      present += static_cast<std::uint64_t>(std::popcount(word));
    }
    it->second.reset();
    return kPageBytes - present;
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

  /// A null bitmap marks a full page.
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::array<CacheSlot, kCacheSlots> cache_{};
  std::uint64_t count_ = 0;
};

}  // namespace hybridic::prof
