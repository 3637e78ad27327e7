#include "util/rng.hpp"

#include <array>
#include <bit>
#include <cstddef>

namespace hybridic {

namespace {

/// A 256-bit generator state, and a 256x256 GF(2) matrix stored as its
/// columns: column i is the image of the state with only bit i set
/// (bit i = bit i % 64 of word i / 64).
using StateBits = std::array<std::uint64_t, 4>;
using Matrix = std::array<StateBits, 256>;

/// m * v over GF(2): the XOR of the columns selected by v's set bits.
StateBits apply(const Matrix& m, const StateBits& v) {
  StateBits out{};
  for (std::size_t w = 0; w < v.size(); ++w) {
    for (std::uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
      const StateBits& column =
          m[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] ^= column[k];
      }
    }
  }
  return out;
}

/// powers[k] = M^(2^k) for the step matrix M, k = 0..63.
struct StepPowers {
  explicit StepPowers(void (*step)(std::uint64_t*)) {
    for (std::size_t i = 0; i < 256; ++i) {
      StateBits column{};
      column[i / 64] = std::uint64_t{1} << (i % 64);
      step(column.data());
      powers[0][i] = column;
    }
    // M^(2^k) = M^(2^(k-1)) * M^(2^(k-1)), column by column.
    for (std::size_t k = 1; k < powers.size(); ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        powers[k][i] = apply(powers[k - 1], powers[k - 1][i]);
      }
    }
  }

  std::array<Matrix, 64> powers;
};

}  // namespace

void Rng::discard(std::uint64_t n) {
  static const StepPowers table{[](std::uint64_t* s) { step(s); }};
  StateBits state{state_[0], state_[1], state_[2], state_[3]};
  for (std::uint64_t bits = n; bits != 0; bits &= bits - 1) {
    state = apply(table.powers[static_cast<std::size_t>(
                      std::countr_zero(bits))],
                  state);
  }
  for (std::size_t w = 0; w < state.size(); ++w) {
    state_[w] = state[w];
  }
}

}  // namespace hybridic
