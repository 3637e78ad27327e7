// PagedByteSet against a std::vector<bool> model: every insert's fresh
// count, size() and contains() of every byte must match, whichever mix of
// whole-page (full-page), partial and page-straddling inserts built it.
#include "prof/byte_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace hybridic::prof {
namespace {

constexpr std::uint64_t kPage = PagedByteSet::kPageBytes;
constexpr std::uint64_t kPages = 8;
/// Not page-aligned, so address 0 of the model is mid-page.
constexpr std::uint64_t kBase = 5 * kPage + 1000;

/// Byte-array model of the set over [kBase, kBase + kPages * kPage).
struct ReferenceSet {
  std::vector<bool> bits = std::vector<bool>(kPages * kPage, false);
  std::uint64_t count = 0;

  std::uint64_t insert_range(std::uint64_t addr, std::uint64_t size) {
    std::uint64_t fresh = 0;
    for (std::uint64_t a = addr; a < addr + size; ++a) {
      if (!bits[a - kBase]) {
        bits[a - kBase] = true;
        ++fresh;
      }
    }
    count += fresh;
    return fresh;
  }
};

/// Insert into both and compare the fresh counts.
void insert_both(PagedByteSet& set, ReferenceSet& ref, std::uint64_t addr,
                 std::uint64_t size) {
  ASSERT_EQ(set.insert_range(addr, size), ref.insert_range(addr, size))
      << "insert [" << addr << ", +" << size << ")";
  ASSERT_EQ(set.size(), ref.count);
}

void expect_matches(const PagedByteSet& set, const ReferenceSet& ref) {
  EXPECT_EQ(set.size(), ref.count);
  EXPECT_EQ(set.empty(), ref.count == 0);
  // One page of margin on either side must stay empty.
  for (std::uint64_t a = kBase - kPage; a < kBase + (kPages + 1) * kPage;
       ++a) {
    const bool expected =
        a >= kBase && a < kBase + kPages * kPage && ref.bits[a - kBase];
    ASSERT_EQ(set.contains(a), expected) << a;
  }
}

/// First address of a page that lies wholly inside the model.
std::uint64_t whole_page(Rng& rng) {
  const std::uint64_t first = (kBase + kPage - 1) / kPage;
  const std::uint64_t last = (kBase + kPages * kPage) / kPage - 1;
  return rng.between(first, last) * kPage;
}

/// One random insert, of a kind the profiler makes.
void random_insert(PagedByteSet& set, ReferenceSet& ref, Rng& rng) {
  const std::uint64_t kind = rng.below(5);
  if (kind == 0) {  // Whole page.
    insert_both(set, ref, whole_page(rng), kPage);
  } else if (kind == 1) {  // Partial, inside one page.
    const std::uint64_t page = whole_page(rng);
    const std::uint64_t offset = rng.below(kPage - 1);
    insert_both(set, ref, page + offset, rng.between(1, kPage - offset - 1));
  } else if (kind == 2) {  // Straddles one or more page boundaries.
    const std::uint64_t addr = kBase + rng.below(kPages * kPage - 3 * kPage);
    insert_both(set, ref, addr, rng.between(kPage / 2, 2 * kPage + 100));
  } else if (kind == 3) {  // Single element, as TrackedBuffer::get.
    insert_both(set, ref, kBase + rng.below(kPages * kPage - 8),
                rng.between(1, 8));
  } else {  // Partial, then whole page over it.
    const std::uint64_t page = whole_page(rng);
    insert_both(set, ref, page + rng.below(kPage / 2), 64);
    insert_both(set, ref, page, kPage);
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

TEST(PagedByteSet, SeededSequencesMatchBitVectorModel) {
  for (const std::uint64_t seed : {1U, 2U, 3U, 7U, 42U}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    PagedByteSet set;
    ReferenceSet ref;
    for (int step = 0; step < 200; ++step) {
      random_insert(set, ref, rng);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
    expect_matches(set, ref);
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
