// ChunkDirectory: the sparse page store behind ShadowMemory and
// PagedByteSet. Address space is cut into 4 KiB pages, and pages are
// grouped 64 to a chunk (256 KiB), so a structure keyed by page pays one
// hash node per chunk rather than one per page, and a bulk access walks a
// chunk's pages directly instead of looking each one up (docs/MODEL.md
// §10). A chunk lives inside its hash node, so pointers into it survive
// rehashing; the page caches of both users rely on that.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace hybridic::prof {

/// The page and chunk sizes, apart from the directory so that a chunk
/// type can be declared with them.
struct PageGeometry {
  static constexpr std::uint64_t kPageBytes = 4096;
  static constexpr std::uint64_t kChunkPages = 64;
  static constexpr std::uint64_t kChunkBytes = kPageBytes * kChunkPages;

  /// Bits [first, first + count) of a chunk's page mask; count in 1..64.
  static constexpr std::uint64_t page_mask(std::uint64_t first,
                                           std::uint64_t count) {
    return (count == kChunkPages ? ~0ULL : (1ULL << count) - 1) << first;
  }
};

/// Chunks keyed by address / kChunkBytes.
template <typename Chunk>
class ChunkDirectory {
public:
  /// Chunk `key`, or nullptr if never created.
  [[nodiscard]] Chunk* find(std::uint64_t key) {
    const auto it = chunks_.find(key);
    return it == chunks_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Chunk* find(std::uint64_t key) const {
    const auto it = chunks_.find(key);
    return it == chunks_.end() ? nullptr : &it->second;
  }

  /// Chunk `key`, value-initialized on first use.
  Chunk& get(std::uint64_t key) { return chunks_[key]; }

  /// Visit every chunk, in no particular order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& entry : chunks_) {
      visit(entry.second);
    }
  }

  /// Free every chunk and the bucket array.
  void clear() { chunks_ = decltype(chunks_){}; }

private:
  std::unordered_map<std::uint64_t, Chunk> chunks_;
};

}  // namespace hybridic::prof
