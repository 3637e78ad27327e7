// PagedByteSet: a sparse set of 64-bit byte addresses stored as paged
// bitmaps, used for the profiler's unique-footprint and UMA (unique memory
// address) accounting. Replaces per-byte unordered_set inserts with
// word-granular bitmap updates: an N-byte range costs O(N/64) word ops and
// one hash lookup per 4 KiB page, and popcount gives the exact number of
// freshly inserted addresses — so counts match a byte-by-byte insert loop
// bit for bit.
//
// A whole-page insert makes the page *full*: its key stays present but it
// owns no bitmap, so the bulk accesses of synthetic designs cost one hash
// node per page and no 512-byte bitmap. Partial inserts into a full page
// add nothing. The one-entry cache points at a bitmap (never at a map
// slot), so the element-by-element inserts of the paper apps pay no extra
// dependent load for the full-page case (docs/MODEL.md §10).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace hybridic::prof {

/// Sparse address set with O(1) size() and bulk range insertion.
class PagedByteSet {
public:
  static constexpr std::uint64_t kPageBytes = 4096;

  /// Insert every address in [addr, addr+size); returns how many were not
  /// yet present (the "fresh" count UMA accounting needs).
  std::uint64_t insert_range(std::uint64_t addr, std::uint64_t size) {
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

  /// Move every page of `other` into this set and add its count. Page sets
  /// must be disjoint (the parallel-replay shards partition addresses by
  /// page); `other` is left empty.
  void absorb(PagedByteSet& other) {
    for (auto& [key, page] : other.pages_) {
      auto [it, inserted] = pages_.emplace(key, std::move(page));
      (void)it;
      if (!inserted) {
        throw std::logic_error{"PagedByteSet::absorb: overlapping pages"};
      }
    }
    count_ += other.count_;
    other.pages_.clear();
    other.cached_page_ = nullptr;
    other.cached_key_ = 0;
    other.count_ = 0;
  }

private:
  using Page = std::array<std::uint64_t, kPageBytes / 64>;

  /// The bitmap of page `key`, allocated zeroed on first touch; nullptr
  /// when the page is full.
  Page* bitmap_for(std::uint64_t key) {
    if (cached_page_ != nullptr && key == cached_key_) {
      return cached_page_;
    }
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) {
      it->second = std::make_unique<Page>();  // Value-initialized: zeros.
    }
    if (it->second != nullptr) {
      cached_key_ = key;
      cached_page_ = it->second.get();
    }
    return it->second.get();
  }

  /// Make page `key` full; returns how many of its addresses were absent.
  std::uint64_t fill_page(std::uint64_t key) {
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
    if (cached_page_ == it->second.get()) {
      cached_page_ = nullptr;
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
      const std::uint64_t added = mask & ~page[word];
      fresh += static_cast<std::uint64_t>(std::popcount(added));
      page[word] |= mask;
      bit += span;
    }
    return fresh;
  }

  /// A null bitmap marks a full page.
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::uint64_t cached_key_ = 0;
  Page* cached_page_ = nullptr;
  std::uint64_t count_ = 0;
};

}  // namespace hybridic::prof
