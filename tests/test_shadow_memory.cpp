#include "prof/shadow_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace hybridic::prof {
namespace {

constexpr std::uint64_t kPage = ShadowMemory::kPageBytes;
constexpr std::uint64_t kChunkPages = PageGeometry::kChunkPages;
constexpr std::uint64_t kChunk = PageGeometry::kChunkBytes;

using Run = std::tuple<std::uint64_t, std::uint64_t, FunctionId>;

std::vector<Run> scan_runs(ShadowMemory& shadow, std::uint64_t addr,
                           std::uint64_t size) {
  std::vector<Run> runs;
  shadow.scan(addr, size,
              [&runs](std::uint64_t start, std::uint64_t length,
                      FunctionId producer) {
                runs.emplace_back(start, length, producer);
              });
  return runs;
}

/// Byte-array model of a shadow: one last writer per byte of
/// [base, base + size), kNoWriter elsewhere.
struct ReferenceShadow {
  std::uint64_t base;
  std::vector<FunctionId> cells;

  void write(std::uint64_t addr, std::uint64_t size, FunctionId writer) {
    std::fill_n(cells.begin() + static_cast<std::ptrdiff_t>(addr - base),
                size, writer);
  }
  /// Pages with a written byte (no test writes as kNoWriter).
  [[nodiscard]] std::size_t written_pages() const {
    std::size_t pages = 0;
    for (std::uint64_t first = 0; first < cells.size(); first += kPage) {
      const auto page = cells.begin() + static_cast<std::ptrdiff_t>(first);
      if (std::any_of(page, page + static_cast<std::ptrdiff_t>(kPage),
                      [](FunctionId id) { return id != kNoWriter; })) {
        ++pages;
      }
    }
    return pages;
  }
  [[nodiscard]] FunctionId at(std::uint64_t addr) const {
    return addr < base || addr >= base + cells.size() ? kNoWriter
                                                       : cells[addr - base];
  }
  /// The maximal-run sequence of a byte-by-byte walk.
  [[nodiscard]] std::vector<Run> runs(std::uint64_t addr,
                                      std::uint64_t size) const {
    std::vector<Run> out;
    for (std::uint64_t a = addr; a < addr + size; ++a) {
      if (out.empty() || std::get<2>(out.back()) != at(a)) {
        out.emplace_back(a, 1, at(a));
      } else {
        ++std::get<1>(out.back());
      }
    }
    return out;
  }
};

void expect_matches(ShadowMemory& shadow, const ReferenceShadow& ref,
                    Rng& rng) {
  // Every byte, one page of margin either side.
  const std::uint64_t lo = ref.base >= kPage ? ref.base - kPage : 0;
  const std::uint64_t hi = ref.base + ref.cells.size() + kPage;
  for (std::uint64_t a = lo; a < hi; ++a) {
    ASSERT_EQ(shadow.last_writer(a), ref.at(a)) << "byte " << a;
  }
  EXPECT_EQ(scan_runs(shadow, lo, hi - lo), ref.runs(lo, hi - lo));
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t start = lo + rng.below(hi - lo);
    const std::uint64_t size = rng.between(1, hi - start);
    EXPECT_EQ(scan_runs(shadow, start, size), ref.runs(start, size));
  }
  EXPECT_LE(shadow.split_page_count(), shadow.page_count());
}

/// One random write inside the reference window: whole pages, a partial
/// in-page range, a page-straddling range, or a rewrite by the current
/// writer of a byte (which must not split a uniform page).
void random_write(ShadowMemory& shadow, ReferenceShadow& ref, Rng& rng) {
  const std::uint64_t pages = ref.cells.size() / kPage;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  auto writer = static_cast<FunctionId>(rng.below(4));
  switch (rng.below(4)) {
    case 0: {
      const std::uint64_t first = rng.below(pages);
      addr = ref.base + first * kPage;
      size = rng.between(1, pages - first) * kPage;
      break;
    }
    case 1: {
      const std::uint64_t offset = rng.below(kPage);
      addr = ref.base + rng.below(pages) * kPage + offset;
      size = rng.between(1, kPage - offset);
      break;
    }
    case 2: {
      addr = ref.base + rng.below(pages - 1) * kPage +
             rng.between(kPage / 2, kPage - 1);
      size = rng.between(kPage / 2, 2 * kPage);
      break;
    }
    default: {
      addr = ref.base + rng.below(ref.cells.size());
      writer = ref.at(addr);
      if (writer == kNoWriter) {
        writer = 0;
      }
      size = rng.between(1, kPage);
      break;
    }
  }
  size = std::min(size, ref.base + ref.cells.size() - addr);
  shadow.write(addr, size, writer);
  ref.write(addr, size, writer);
}

TEST(ShadowMemory, UntouchedIsNoWriter) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.last_writer(0x1234), kNoWriter);
  EXPECT_EQ(shadow.page_count(), 0U);
}

TEST(ShadowMemory, WriteThenRead) {
  ShadowMemory shadow;
  shadow.write(100, 10, 7);
  EXPECT_EQ(shadow.last_writer(100), 7U);
  EXPECT_EQ(shadow.last_writer(109), 7U);
  EXPECT_EQ(shadow.last_writer(110), kNoWriter);
  EXPECT_EQ(shadow.last_writer(99), kNoWriter);
}

TEST(ShadowMemory, OverwriteChangesProducer) {
  ShadowMemory shadow;
  shadow.write(0, 16, 1);
  shadow.write(4, 4, 2);
  EXPECT_EQ(shadow.last_writer(3), 1U);
  EXPECT_EQ(shadow.last_writer(4), 2U);
  EXPECT_EQ(shadow.last_writer(7), 2U);
  EXPECT_EQ(shadow.last_writer(8), 1U);
}

TEST(ShadowMemory, WritesSpanPages) {
  ShadowMemory shadow;
  const std::uint64_t start = ShadowMemory::kPageBytes - 8;
  shadow.write(start, 16, 3);
  EXPECT_EQ(shadow.last_writer(start), 3U);
  EXPECT_EQ(shadow.last_writer(ShadowMemory::kPageBytes), 3U);
  EXPECT_EQ(shadow.last_writer(start + 15), 3U);
  EXPECT_EQ(shadow.page_count(), 2U);
}

TEST(ShadowMemory, ScanReportsRuns) {
  ShadowMemory shadow;
  shadow.write(0, 4, 1);
  shadow.write(4, 4, 2);
  // Bytes 8..11 untouched.
  struct Run {
    std::uint64_t start, length;
    FunctionId producer;
  };
  std::vector<Run> runs;
  shadow.scan(0, 12, [&runs](std::uint64_t s, std::uint64_t l,
                             FunctionId p) {
    runs.push_back(Run{s, l, p});
  });
  ASSERT_EQ(runs.size(), 3U);
  EXPECT_EQ(runs[0].producer, 1U);
  EXPECT_EQ(runs[0].length, 4U);
  EXPECT_EQ(runs[1].producer, 2U);
  EXPECT_EQ(runs[1].length, 4U);
  EXPECT_EQ(runs[2].producer, kNoWriter);
  EXPECT_EQ(runs[2].length, 4U);
}

TEST(ShadowMemory, ScanCoversExactRange) {
  ShadowMemory shadow;
  shadow.write(10, 100, 5);
  std::uint64_t covered = 0;
  shadow.scan(0, 200, [&covered](std::uint64_t, std::uint64_t l,
                                 FunctionId) { covered += l; });
  EXPECT_EQ(covered, 200U);
}

TEST(ShadowMemory, LargeSparseAddressesStayCheap) {
  ShadowMemory shadow;
  shadow.write(0, 8, 1);
  shadow.write(1ULL << 40, 8, 2);
  EXPECT_EQ(shadow.page_count(), 2U);
  EXPECT_EQ(shadow.last_writer(1ULL << 40), 2U);
}

TEST(ShadowMemory, PagesSplitOnlyOnPartialWritesByAnotherWriter) {
  ShadowMemory shadow;
  shadow.write(kPage, 3 * kPage, 1);  // Three whole pages: uniform.
  EXPECT_EQ(shadow.page_count(), 3U);
  EXPECT_EQ(shadow.split_page_count(), 0U);
  shadow.write(kPage + 100, 50, 1);  // Same writer, partial: no split.
  EXPECT_EQ(shadow.split_page_count(), 0U);
  shadow.write(2 * kPage + 100, 50, 2);  // Another writer: splits.
  EXPECT_EQ(shadow.split_page_count(), 1U);
  EXPECT_EQ(shadow.last_writer(2 * kPage + 99), 1U);
  EXPECT_EQ(shadow.last_writer(2 * kPage + 100), 2U);
  shadow.write(2 * kPage, kPage, 3);  // Whole page: uniform again.
  EXPECT_EQ(shadow.split_page_count(), 0U);
  EXPECT_EQ(shadow.last_writer(2 * kPage + 100), 3U);
  shadow.write(5 * kPage + 8, 8, 4);  // Partial write to a fresh page.
  EXPECT_EQ(shadow.page_count(), 4U);
  EXPECT_EQ(shadow.split_page_count(), 1U);
  EXPECT_EQ(shadow.last_writer(5 * kPage), kNoWriter);
}

/// Page 63, 64 or 65 of one of the window's chunk boundaries (a page
/// just before, at or after it), as a page index into the window; the
/// window's base must be chunk-aligned.
std::uint64_t boundary_page(const ReferenceShadow& ref, Rng& rng) {
  const std::uint64_t chunks = ref.cells.size() / kChunk;
  return rng.between(1, chunks - 1) * kChunkPages + rng.between(0, 2) - 1;
}

/// One random write that starts, ends or turns at a chunk boundary, of a
/// kind a bulk access makes, or else one of random_write's.
void random_chunk_write(ShadowMemory& shadow, ReferenceShadow& ref,
                        Rng& rng) {
  const std::uint64_t window = ref.cells.size();
  const auto writer = static_cast<FunctionId>(rng.below(4));
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  switch (rng.below(6)) {
    case 0: {  // Starts at a boundary page, aligned or not.
      addr = ref.base + boundary_page(ref, rng) * kPage +
             (rng.chance(0.5) ? 0 : rng.below(kPage));
      size = rng.between(1, 2 * kChunk);
      break;
    }
    case 1: {  // Ends in or after a boundary page.
      const std::uint64_t end =
          ref.base + boundary_page(ref, rng) * kPage +
          (rng.chance(0.5) ? kPage : rng.between(1, kPage));
      size = std::min(rng.between(1, 2 * kChunk), end - ref.base);
      addr = end - size;
      break;
    }
    case 2: {  // One or more whole chunks.
      const std::uint64_t chunks = window / kChunk;
      const std::uint64_t first = rng.below(chunks);
      addr = ref.base + first * kChunk;
      size = rng.between(1, chunks - first) * kChunk;
      break;
    }
    case 3: {  // Partial writes, then whole pages over them.
      const std::uint64_t boundary =
          ref.base + rng.between(1, window / kChunk - 1) * kChunk;
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t at =
            boundary - 2 * kPage + rng.below(4 * kPage - 64);
        const auto other = static_cast<FunctionId>(rng.below(4));
        const std::uint64_t length = rng.between(1, 64);
        shadow.write(at, length, other);
        ref.write(at, length, other);
      }
      addr = boundary - rng.between(1, 3) * kPage;
      size = rng.between(2, 6) * kPage;
      break;
    }
    default:
      random_write(shadow, ref, rng);
      return;
  }
  size = std::min(size, ref.base + window - addr);
  shadow.write(addr, size, writer);
  ref.write(addr, size, writer);
}

using WriteFn = void (*)(ShadowMemory&, ReferenceShadow&, Rng&);

/// Seeded writes into a `pages`-page window from `base`, with every byte,
/// a few scans and the written-page count checked against the byte-array
/// model every 60 writes.
void check_against_reference(std::uint64_t base, std::uint64_t pages,
                             int writes, WriteFn write) {
  for (const std::uint64_t seed : {1U, 2U, 3U, 4U}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    ShadowMemory shadow;
    ReferenceShadow ref{base, std::vector<FunctionId>(pages * kPage,
                                                      kNoWriter)};
    for (int op = 1; op <= writes; ++op) {
      write(shadow, ref, rng);
      if (op % 60 == 0) {
        expect_matches(shadow, ref, rng);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        EXPECT_EQ(shadow.page_count(), ref.written_pages());
      }
    }
  }
}

TEST(ShadowMemory, MatchesByteArrayReference) {
  check_against_reference(9 * kPage, 6, 300, random_write);
}

TEST(ShadowMemory, PagesSharingCacheSlotsMatchByteArrayReference) {
  // Forty pages: more than the page cache holds, so pages that share a
  // slot evict each other between writes and scans.
  check_against_reference(9 * kPage, 40, 240, random_write);
}

TEST(ShadowMemory, ChunkSpanningWritesMatchByteArrayReference) {
  // Three whole chunks from chunk 1, so every write and scan that crosses
  // page 64, 128 or 192 crosses a chunk boundary.
  check_against_reference(kChunk, 3 * kChunkPages, 120, random_chunk_write);
}

TEST(ShadowMemory, SparseChunksAtZeroAndFarAwayMatchByteArrayReferences) {
  // One shadow, two windows of two chunks: from address 0 and from
  // 1 << 40, 2^22 chunks apart.
  for (const std::uint64_t seed : {5U, 6U}) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    ShadowMemory shadow;
    ReferenceShadow low{0, std::vector<FunctionId>(2 * kChunk, kNoWriter)};
    ReferenceShadow high{1ULL << 40,
                         std::vector<FunctionId>(2 * kChunk, kNoWriter)};
    for (int op = 1; op <= 120; ++op) {
      random_chunk_write(shadow, rng.chance(0.5) ? low : high, rng);
    }
    expect_matches(shadow, low, rng);
    expect_matches(shadow, high, rng);
    EXPECT_EQ(shadow.page_count(), low.written_pages() + high.written_pages());
  }
}

}  // namespace
}  // namespace hybridic::prof
