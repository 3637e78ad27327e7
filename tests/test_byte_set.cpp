// PagedByteSet against a std::vector<bool> model: every insert's fresh
// count, size(), page_count() and contains() of every byte must match,
// whichever mix of whole-page (full-page), partial, page-straddling and
// chunk-spanning inserts built it.
#include "prof/byte_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace hybridic::prof {
namespace {

constexpr std::uint64_t kPage = PagedByteSet::kPageBytes;
constexpr std::uint64_t kChunkPages = PageGeometry::kChunkPages;
constexpr std::uint64_t kChunk = PageGeometry::kChunkBytes;

/// Byte-array model of the set over [base, base + pages * kPage).
struct ReferenceSet {
  ReferenceSet(std::uint64_t window_base, std::uint64_t window_pages)
      : base(window_base),
        pages(window_pages),
        bits(window_pages * kPage, false) {}

  std::uint64_t base;
  std::uint64_t pages;
  std::vector<bool> bits;
  std::uint64_t count = 0;

  [[nodiscard]] std::uint64_t end() const { return base + pages * kPage; }

  std::uint64_t insert_range(std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    for (std::uint64_t a = addr; a < addr + size; ++a) {
      if (!bits[a - base]) {
        bits[a - base] = true;
        ++fresh;
      }
    }
    count += fresh;
    return fresh;
  }

  /// Pages of the window holding at least one address.
  [[nodiscard]] std::uint64_t page_count() const {
    std::uint64_t held = 0;
    for (std::uint64_t a = base; a < end();) {
      const std::uint64_t page_end = std::min(end(), (a / kPage + 1) * kPage);
      while (a < page_end && !bits[a - base]) {
        ++a;
      }
      held += a < page_end ? 1 : 0;
      a = page_end;
    }
    return held;
  }
};

/// Not page-aligned, so address 0 of the model is mid-page.
ReferenceSet eight_page_window() { return {5 * kPage + 1000, 8}; }

/// Three whole chunks and a few pages either side: from mid-page 60 of
/// chunk 0 to page 4 of chunk 4.
ReferenceSet three_chunk_window() {
  return {kChunk - 4 * kPage + 1000, 3 * kChunkPages + 8};
}

/// Insert into both and compare the fresh counts.
void insert_both(PagedByteSet& set, ReferenceSet& ref, std::uint64_t addr,
                 std::uint64_t size) {
  ASSERT_EQ(set.insert_range(addr, size), ref.insert_range(addr, size))
      << "insert [" << addr << ", +" << size << ")";
  ASSERT_EQ(set.size(), ref.count);
}

/// Every byte of `ref`'s window and one page of margin either side, which
/// must stay empty.
void expect_window_matches(const PagedByteSet& set, const ReferenceSet& ref) {
  const std::uint64_t lo = ref.base >= kPage ? ref.base - kPage : 0;
  for (std::uint64_t a = lo; a < ref.end() + kPage; ++a) {
    const bool expected = a >= ref.base && a < ref.end() && ref.bits[a - ref.base];
    ASSERT_EQ(set.contains(a), expected) << a;
  }
}

void expect_matches(const PagedByteSet& set, const ReferenceSet& ref) {
  EXPECT_EQ(set.size(), ref.count);
  EXPECT_EQ(set.empty(), ref.count == 0);
  EXPECT_EQ(set.page_count(), ref.page_count());
  EXPECT_LE(set.bitmap_page_count(), set.page_count());
  expect_window_matches(set, ref);
}

/// First address of a page that lies wholly inside the model.
std::uint64_t whole_page(const ReferenceSet& ref, Rng& rng) {
  const std::uint64_t first = (ref.base + kPage - 1) / kPage;
  const std::uint64_t last = ref.end() / kPage - 1;
  return rng.between(first, last) * kPage;
}

/// One random insert, of a kind the profiler makes.
void random_insert(PagedByteSet& set, ReferenceSet& ref, Rng& rng) {
  const std::uint64_t window = ref.pages * kPage;
  const std::uint64_t kind = rng.below(5);
  if (kind == 0) {  // Whole page.
    insert_both(set, ref, whole_page(ref, rng), kPage);
  } else if (kind == 1) {  // Partial, inside one page.
    const std::uint64_t page = whole_page(ref, rng);
    const std::uint64_t offset = rng.below(kPage - 1);
    insert_both(set, ref, page + offset, rng.between(1, kPage - offset - 1));
  } else if (kind == 2) {  // Straddles one or more page boundaries.
    const std::uint64_t addr = ref.base + rng.below(window - 3 * kPage);
    insert_both(set, ref, addr, rng.between(kPage / 2, 2 * kPage + 100));
  } else if (kind == 3) {  // Single element, as TrackedBuffer::get.
    insert_both(set, ref, ref.base + rng.below(window - 8),
                rng.between(1, 8));
  } else {  // Partial, then whole page over it.
    const std::uint64_t page = whole_page(ref, rng);
    insert_both(set, ref, page + rng.below(kPage / 2), 64);
    insert_both(set, ref, page, kPage);
  }
}

/// Page 63, 64 or 65 of chunk 1, 2 or 3 (a page just before, at or
/// after a chunk boundary), as an address.
std::uint64_t boundary_page(Rng& rng) {
  return (rng.between(1, 3) * kChunkPages + rng.between(0, 2) - 1) * kPage;
}

/// One random insert that starts, ends or turns at a chunk boundary, of a
/// kind a bulk access makes; the window must be three_chunk_window().
void random_chunk_insert(PagedByteSet& set, ReferenceSet& ref, Rng& rng) {
  const std::uint64_t kind = rng.below(5);
  if (kind == 0) {  // Starts at a boundary page, aligned or not.
    const std::uint64_t addr =
        boundary_page(rng) + (rng.chance(0.5) ? 0 : rng.below(kPage));
    const std::uint64_t size = rng.between(1, 2 * kChunk);
    insert_both(set, ref, addr, std::min(size, ref.end() - addr));
  } else if (kind == 1) {  // Ends in or after a boundary page.
    const std::uint64_t end = boundary_page(rng) +
                              (rng.chance(0.5) ? kPage : rng.between(1, kPage));
    const std::uint64_t size = rng.between(1, 2 * kChunk);
    const std::uint64_t addr = size > end - ref.base ? ref.base : end - size;
    insert_both(set, ref, addr, end - addr);
  } else if (kind == 2) {  // One or more whole chunks.
    const std::uint64_t first = rng.between(1, 3);
    insert_both(set, ref, first * kChunk,
                rng.between(1, 4 - first) * kChunk);
  } else if (kind == 3) {  // Partial pages, then whole pages over them.
    const std::uint64_t boundary =
        rng.between(1, 3) * kChunk;  // Page 64, 128 or 192.
    for (int i = 0; i < 4; ++i) {
      insert_both(set, ref,
                  boundary - 2 * kPage + rng.below(4 * kPage - 64),
                  rng.between(1, 64));
    }
    const std::uint64_t first = boundary - rng.between(1, 3) * kPage;
    insert_both(set, ref, first, rng.between(2, 6) * kPage);
  } else {
    random_insert(set, ref, rng);
  }
}

TEST(PagedByteSet, WholePageInsertOnEmptyPageIsFullAndOwnsNoBitmap) {
  PagedByteSet set;
  EXPECT_EQ(set.insert_range(3 * kPage, kPage), kPage);
  EXPECT_EQ(set.page_count(), 1U);
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  EXPECT_EQ(set.insert_range(3 * kPage, kPage), 0U);
  EXPECT_EQ(set.insert_range(3 * kPage + 17, 100), 0U);  // Partial on full.
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  EXPECT_TRUE(set.contains(3 * kPage));
  EXPECT_TRUE(set.contains(4 * kPage - 1));
  EXPECT_FALSE(set.contains(4 * kPage));
  EXPECT_EQ(set.size(), kPage);
}

TEST(PagedByteSet, WholePageOverPartialCountsOnlyTheMissingBytes) {
  PagedByteSet set;
  EXPECT_EQ(set.insert_range(kPage + 10, 90), 90U);
  EXPECT_EQ(set.insert_range(2 * kPage - 1, 1), 1U);
  EXPECT_EQ(set.bitmap_page_count(), 1U);
  EXPECT_EQ(set.insert_range(kPage, kPage), kPage - 91);
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  EXPECT_EQ(set.size(), kPage);
  // Element inserts after the bitmap was dropped must not reach it.
  EXPECT_EQ(set.insert_range(kPage + 10, 1), 0U);
  EXPECT_EQ(set.insert_range(kPage + 4000, 8), 0U);
  EXPECT_EQ(set.size(), kPage);
}

TEST(PagedByteSet, StraddlingInsertFillsOnlyTheCoveredWholePages) {
  PagedByteSet set;
  // [0.5 page, 3.5 pages): two whole pages, two partial ones.
  EXPECT_EQ(set.insert_range(kPage / 2, 3 * kPage), 3 * kPage);
  EXPECT_EQ(set.page_count(), 4U);
  EXPECT_EQ(set.bitmap_page_count(), 2U);
  EXPECT_FALSE(set.contains(kPage / 2 - 1));
  EXPECT_TRUE(set.contains(kPage / 2));
  EXPECT_TRUE(set.contains(kPage / 2 + 3 * kPage - 1));
  EXPECT_FALSE(set.contains(kPage / 2 + 3 * kPage));
}

using InsertFn = void (*)(PagedByteSet&, ReferenceSet&, Rng&);

/// Seeded insert sequences into `window`, each checked against the model
/// every 40 inserts.
void check_sequences(const ReferenceSet& window, int steps,
                     InsertFn insert) {
  for (const std::uint64_t seed : {1U, 2U, 3U, 7U, 42U}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    PagedByteSet set;
    ReferenceSet ref = window;
    for (int step = 1; step <= steps; ++step) {
      insert(set, ref, rng);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
      if (step % 40 == 0) {
        expect_matches(set, ref);
      }
    }
  }
}

TEST(PagedByteSet, SeededSequencesMatchBitVectorModel) {
  check_sequences(eight_page_window(), 200, random_insert);
}

TEST(PagedByteSet, SeededSequencesAcrossChunksMatchBitVectorModel) {
  check_sequences(three_chunk_window(), 120, random_chunk_insert);
}

TEST(PagedByteSet, WholeChunkRunsCountAsMasks) {
  PagedByteSet set;
  // Chunk 1 whole, then chunks 0-2 whole: only chunks 0 and 2 are fresh.
  EXPECT_EQ(set.insert_range(kChunk, kChunk), kChunk);
  EXPECT_EQ(set.insert_range(0, 3 * kChunk), 2 * kChunk);
  EXPECT_EQ(set.page_count(), 3 * kChunkPages);
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  // Partial pages 255 and 256, either side of the chunk boundary at page
  // 256, then a whole-page run over pages 254-257 that crosses it and
  // drops both bitmaps.
  const std::uint64_t boundary = 4 * kChunk;
  EXPECT_EQ(set.insert_range(boundary - kPage + 100, 10), 10U);
  EXPECT_EQ(set.insert_range(boundary + 4000, 50), 50U);
  EXPECT_EQ(set.bitmap_page_count(), 2U);
  EXPECT_EQ(set.insert_range(boundary - 2 * kPage, 4 * kPage),
            4 * kPage - 60);
  EXPECT_EQ(set.bitmap_page_count(), 0U);
  EXPECT_EQ(set.page_count(), 3 * kChunkPages + 4);
  // An element insert into a dropped page adds nothing.
  EXPECT_EQ(set.insert_range(boundary + 4000, 8), 0U);
  EXPECT_EQ(set.size(), 3 * kChunk + 4 * kPage);
}

TEST(PagedByteSet, SparseChunksAtZeroAndFarAwayMatchBitVectorModels) {
  // Two windows of 66 pages, one from address 0 and one from 1 << 40:
  // chunk 0 and a chunk 2^22 chunks away, each with a boundary inside.
  for (const std::uint64_t seed : {3U, 11U}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    PagedByteSet set;
    ReferenceSet low{0, kChunkPages + 2};
    ReferenceSet high{1ULL << 40, kChunkPages + 2};
    const auto insert = [&](ReferenceSet& ref, std::uint64_t addr,
                            std::uint64_t size) {
      ASSERT_EQ(set.insert_range(addr, size), ref.insert_range(addr, size))
          << "insert [" << addr << ", +" << size << ")";
      ASSERT_EQ(set.size(), low.count + high.count);
    };
    for (int step = 0; step < 160; ++step) {
      ReferenceSet& ref = rng.chance(0.5) ? low : high;
      const std::uint64_t kind = rng.below(4);
      if (kind == 0) {  // Whole pages from page 61, 62, 63 or 64.
        insert(ref, ref.base + rng.between(61, 64) * kPage,
               rng.between(1, 2) * kPage);
      } else if (kind == 1) {  // Partial, inside one page.
        const std::uint64_t page = whole_page(ref, rng);
        const std::uint64_t offset = rng.below(kPage - 1);
        insert(ref, page + offset, rng.between(1, kPage - offset - 1));
      } else if (kind == 2) {  // Straddles pages, maybe the boundary.
        insert(ref, ref.base + rng.between(60, 63) * kPage + rng.below(kPage),
               rng.between(kPage / 2, 2 * kPage));
      } else {  // Single element.
        insert(ref, ref.base + rng.below(ref.pages * kPage - 8),
               rng.between(1, 8));
      }
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(set.page_count(), low.page_count() + high.page_count());
    expect_window_matches(set, low);
    expect_window_matches(set, high);
  }
}

TEST(PagedByteSet, PagesSharingCacheSlotsCountLikeASetOfAddresses) {
  // Page keys 64 apart share a slot of any power-of-two cache up to 64
  // slots: inserts alternate between them, fill one while it is cached,
  // then keep inserting into it.
  PagedByteSet set;
  std::set<std::uint64_t> model;
  const auto insert = [&](std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    for (std::uint64_t a = addr; a < addr + size; ++a) {
      if (model.insert(a).second) {
        ++fresh;
      }
    }
    ASSERT_EQ(set.insert_range(addr, size), fresh)
        << "insert [" << addr << ", +" << size << ")";
  };
  Rng rng{5};
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t page = (3 + rng.below(4) * 64) * kPage;
    if (step % 250 == 0) {
      insert(page, kPage);
    } else {
      insert(page + rng.below(kPage - 8), rng.between(1, 8));
    }
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(set.size(), model.size());
  EXPECT_EQ(set.page_count(), 4U);
  for (const std::uint64_t addr : model) {
    ASSERT_TRUE(set.contains(addr)) << addr;
  }
}

}  // namespace
}  // namespace hybridic::prof
