#include "prof/shadow_memory.hpp"

#include <algorithm>
#include <bit>

namespace hybridic::prof {

void ShadowMemory::write_pages(std::uint64_t addr, std::uint64_t size,
                               FunctionId writer) {
  std::uint64_t pos = addr;
  const std::uint64_t end = addr + size;
  while (pos < end) {
    const std::uint64_t chunk_end =
        pos + std::min(end - pos, kChunkBytes - pos % kChunkBytes);
    Chunk& chunk = chunks_.get(pos / kChunkBytes);
    const std::uint64_t first = pos / kPageBytes % kChunkPages;
    chunk.written |= PageGeometry::page_mask(
        first, (chunk_end - 1) / kPageBytes % kChunkPages - first + 1);
    while (pos < chunk_end) {
      const std::uint64_t offset = pos % kPageBytes;
      const std::uint64_t in_page =
          std::min(chunk_end - pos, kPageBytes - offset);
      Page& page = chunk.pages[pos / kPageBytes % kChunkPages];
      if (in_page == kPageBytes) {
        // Whole-page write: one writer for every byte.
        if (page.cells != nullptr) {
          page.cells.reset();
          --split_pages_;
        }
        page.uniform = writer;
      } else {
        if (page.cells != nullptr) {
          std::fill_n(
              page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
              in_page, writer);
        } else if (page.uniform != writer) {
          // Partial write by a new writer: split into per-byte cells.
          page.cells = std::make_unique_for_overwrite<Cells>();
          page.cells->fill(page.uniform);
          std::fill_n(
              page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
              in_page, writer);
          ++split_pages_;
        }
        // The element writes that follow hit the cache.
        slot(pos / kPageBytes) = {pos / kPageBytes, &page};
      }
      pos += in_page;
    }
  }
}

void ShadowMemory::release() {
  chunks_.clear();
  split_pages_ = 0;
  cache_.reset();
}

std::size_t ShadowMemory::page_count() const {
  std::size_t pages = 0;
  chunks_.for_each([&pages](const Chunk& chunk) {
    pages += static_cast<std::size_t>(std::popcount(chunk.written));
  });
  return pages;
}

FunctionId ShadowMemory::last_writer(std::uint64_t addr) const {
  const Chunk* chunk = chunks_.find(addr / kChunkBytes);
  if (chunk == nullptr) {
    return kNoWriter;
  }
  const Page& page = chunk->pages[addr / kPageBytes % kChunkPages];
  if (page.cells == nullptr) {
    return page.uniform;
  }
  return (*page.cells)[addr % kPageBytes];
}

}  // namespace hybridic::prof
