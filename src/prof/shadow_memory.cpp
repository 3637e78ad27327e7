#include "prof/shadow_memory.hpp"

#include <algorithm>
#include <stdexcept>

namespace hybridic::prof {

ShadowMemory::Page& ShadowMemory::page_for(std::uint64_t key) {
  if (cached_page_ != nullptr && key == cached_key_) {
    return *cached_page_;
  }
  // Node-based map: the cached pointer survives rehashing.
  Page& page = pages_[key];
  cached_key_ = key;
  cached_page_ = &page;
  return page;
}

void ShadowMemory::write(std::uint64_t addr, std::uint64_t size,
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
      page.cells = std::make_unique<Cells>();
      page.cells->fill(page.uniform);
      std::fill_n(page.cells->begin() + static_cast<std::ptrdiff_t>(offset),
                  in_page, writer);
      ++split_pages_;
    }
    pos += in_page;
  }
}

void ShadowMemory::absorb(ShadowMemory& other) {
  for (auto& [key, page] : other.pages_) {
    auto [it, inserted] = pages_.emplace(key, std::move(page));
    (void)it;
    if (!inserted) {
      // Disjointness is a caller invariant; colliding pages would mean two
      // shards claimed the same page and the merge would be order-dependent.
      throw std::logic_error{"ShadowMemory::absorb: overlapping pages"};
    }
  }
  split_pages_ += other.split_pages_;
  other.pages_.clear();
  other.split_pages_ = 0;
  other.cached_key_ = UINT64_MAX;
  other.cached_page_ = nullptr;
  scans_.fetch_add(other.scans_.exchange(0, std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void ShadowMemory::release() {
  pages_ = decltype(pages_){};
  split_pages_ = 0;
  cached_key_ = UINT64_MAX;
  cached_page_ = nullptr;
}

FunctionId ShadowMemory::last_writer(std::uint64_t addr) const {
  const Page* page = lookup_page(addr / kPageBytes);
  if (page == nullptr) {
    return kNoWriter;
  }
  if (page->cells == nullptr) {
    return page->uniform;
  }
  return (*page->cells)[addr % kPageBytes];
}

}  // namespace hybridic::prof
