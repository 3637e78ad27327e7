#include "prof/shadow_memory.hpp"

#include <algorithm>

namespace hybridic::prof {

ShadowMemory::Page& ShadowMemory::page_for(std::uint64_t key) {
  CacheSlot& cached = slot(key);
  if (cached.key == key) {
    return *cached.page;
  }
  Page& page = pages_[key];
  cached = {key, &page};
  return page;
}

void ShadowMemory::write_pages(std::uint64_t addr, std::uint64_t size,
                               FunctionId writer) {
  std::uint64_t pos = addr;
  const std::uint64_t end = addr + size;
  while (pos < end) {
    Page& page = page_for(pos / kPageBytes);
    const std::uint64_t offset = pos % kPageBytes;
    const std::uint64_t in_page = std::min(end - pos, kPageBytes - offset);
    if (in_page == kPageBytes) {
      // Whole-page write: one writer for every byte.
      if (page.cells != nullptr) {
        page.cells.reset();
        --split_pages_;
      }
      page.uniform = writer;
    } else if (page.cells != nullptr) {
      std::fill_n(page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
                  in_page, writer);
    } else if (page.uniform != writer) {
      // Partial write by a new writer: split into per-byte cells.
      page.cells = std::make_unique_for_overwrite<Cells>();
      page.cells->fill(page.uniform);
      std::fill_n(page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
                  in_page, writer);
      ++split_pages_;
    }
    pos += in_page;
  }
}

void ShadowMemory::release() {
  pages_ = decltype(pages_){};
  split_pages_ = 0;
  cache_.reset();
}

FunctionId ShadowMemory::last_writer(std::uint64_t addr) const {
  const auto it = pages_.find(addr / kPageBytes);
  if (it == pages_.end()) {
    return kNoWriter;
  }
  const Page& page = it->second;
  if (page.cells == nullptr) {
    return page.uniform;
  }
  return (*page.cells)[addr % kPageBytes];
}

}  // namespace hybridic::prof
