#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

namespace hybridic {
namespace {

/// The state after `n` next() calls from `rng`, observed as the next eight
/// outputs.
std::array<std::uint64_t, 8> after_steps(Rng rng, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    rng.next();
  }
  std::array<std::uint64_t, 8> out{};
  for (std::uint64_t& value : out) {
    value = rng.next();
  }
  return out;
}

std::array<std::uint64_t, 8> after_discard(Rng rng, std::uint64_t n) {
  rng.discard(n);
  std::array<std::uint64_t, 8> out{};
  for (std::uint64_t& value : out) {
    value = rng.next();
  }
  return out;
}

// First in the file, so that run as one process it makes the process's
// first discard(): four threads race to build the shared matrix powers.
TEST(RngDiscard, ConcurrentFirstCallsAgree) {
  constexpr std::uint64_t kSteps = 1000003;
  const auto expected = after_steps(Rng{99}, kSteps);
  std::array<std::array<std::uint64_t, 8>, 4> seen{};
  std::latch start{4};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&seen, &start, t] {
      start.arrive_and_wait();
      seen[t] = after_discard(Rng{99}, kSteps);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& outputs : seen) {
    EXPECT_EQ(outputs, expected);
  }
}

TEST(RngDiscard, EqualsRepeatedNext) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    for (const std::uint64_t n :
         {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 4095ULL, 4096ULL, 131089ULL,
          1000003ULL}) {
      EXPECT_EQ(after_discard(Rng{seed}, n), after_steps(Rng{seed}, n))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(RngDiscard, RandomCountsMidStream) {
  Rng picker{7};
  for (int trial = 0; trial < 24; ++trial) {
    Rng rng{picker.next()};
    for (std::uint64_t i = picker.below(100); i > 0; --i) {
      rng.next();  // Start mid-stream.
    }
    const std::uint64_t n = picker.below(300000);
    EXPECT_EQ(after_discard(rng, n), after_steps(rng, n)) << "n " << n;
  }
}

TEST(RngDiscard, ComposesAdditively) {
  // Exercises the high powers without stepping 2^k times: discard(a) then
  // discard(b) must equal discard(a + b).
  Rng split{5};
  split.discard(0x8000000000000001ULL);
  split.discard(0x3FFFFFFFFFFFFFFFULL);
  Rng whole{5};
  whole.discard(0xC000000000000000ULL);
  EXPECT_EQ(after_steps(split, 0), after_steps(whole, 0));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next() != b.next()) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 45);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17U);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(3, 7);
    EXPECT_GE(v, 3U);
    EXPECT_LE(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);  // All values hit over 2000 draws.
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng{13};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.25, 0.02);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == UINT64_MAX);
  Rng rng{5};
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace hybridic
