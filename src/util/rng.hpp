// Deterministic seeded random number generation.
//
// Everything in HybridIC that needs randomness (workload generators,
// synthetic traffic, the annealing search) takes an explicit Rng so runs
// are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>

#include "util/hash.hpp"

namespace hybridic {

/// xoshiro256** — small, fast, high-quality PRNG with splitmix64 seeding.
class Rng {
public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : state_) {
      word = util::splitmix64(seed);
      seed += util::kGoldenGamma;
    }
  }

  using result_type = std::uint64_t;
  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    step(state_);
    return result;
  }

  /// Advance exactly as `n` calls to next() would, in O(log n): the state
  /// transition is linear over GF(2), so the generator applies one
  /// precomputed power M^(2^k) of its 256x256 step matrix per set bit k of
  /// n. The 64 powers (512 KiB) are built on the first call in the process
  /// (thread-safe) and shared read-only afterwards.
  void discard(std::uint64_t n);

  /// Uniform integer in [0, bound) with Lemire rejection (unbiased enough
  /// for workload generation; bound must be non-zero).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool chance(double p) { return uniform() < p; }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// The state transition of next(), without its output.
  static void step(std::uint64_t* s) {
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
  }

  std::uint64_t state_[4] = {};
};

}  // namespace hybridic
