// 64-bit hashing shared by the store, the caches and every seeded stream.
//
// FNV-1a names store objects, checksums journal records and keys caches;
// splitmix64 seeds Rng and spreads hash bits so keys that differ in a few
// bits land far apart. Their values are part of persistent formats (store
// object names, journal sums, CSV key columns): never change them.
#pragma once

#include <cstdint>
#include <string_view>

namespace hybridic::util {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// splitmix64's state increment (2^64 divided by the golden ratio).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// FNV-1a 64 over `data`, starting from `basis`.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t basis = kFnvBasis) {
  std::uint64_t hash = basis;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// splitmix64's output function alone: a bijective mix of `x` with no
/// state increment.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// splitmix64 of state `x`: one golden-gamma step, then mix64.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return mix64(x + kGoldenGamma);
}

}  // namespace hybridic::util
