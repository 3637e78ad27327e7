// Strong unit types used throughout HybridIC.
//
// The simulator mixes several clock domains (host @400MHz, kernels @100MHz,
// NoC @150MHz, bus @100MHz); all global time is kept in integer picoseconds
// so cross-domain arithmetic is exact for every frequency used in the paper.
#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace hybridic {

/// Global simulation time in picoseconds.
class Picoseconds {
public:
  constexpr Picoseconds() = default;
  constexpr explicit Picoseconds(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t count() const { return value_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(value_) * 1e-12;
  }
  [[nodiscard]] constexpr double microseconds() const {
    return static_cast<double>(value_) * 1e-6;
  }
  [[nodiscard]] constexpr double milliseconds() const {
    return static_cast<double>(value_) * 1e-9;
  }

  constexpr auto operator<=>(const Picoseconds&) const = default;

  constexpr Picoseconds& operator+=(Picoseconds other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Picoseconds& operator-=(Picoseconds other) {
    value_ -= other.value_;
    return *this;
  }

  friend constexpr Picoseconds operator+(Picoseconds a, Picoseconds b) {
    return Picoseconds{a.value_ + b.value_};
  }
  friend constexpr Picoseconds operator-(Picoseconds a, Picoseconds b) {
    return Picoseconds{a.value_ - b.value_};
  }
  friend constexpr Picoseconds operator*(Picoseconds a, std::uint64_t k) {
    return Picoseconds{a.value_ * k};
  }
  friend constexpr Picoseconds operator*(std::uint64_t k, Picoseconds a) {
    return Picoseconds{a.value_ * k};
  }

private:
  std::uint64_t value_ = 0;
};

/// Clock frequency in hertz; converts to an exact integral period where
/// possible and validates that the frequency divides one second in ps.
class Frequency {
public:
  constexpr Frequency() = default;
  constexpr explicit Frequency(std::uint64_t hz) : hz_(hz) {
    if (hz == 0) {
      throw std::invalid_argument("Frequency must be non-zero");
    }
  }

  [[nodiscard]] static constexpr Frequency megahertz(std::uint64_t mhz) {
    return Frequency{mhz * 1'000'000ULL};
  }

  [[nodiscard]] constexpr std::uint64_t hertz() const { return hz_; }
  [[nodiscard]] constexpr double megahertz_value() const {
    return static_cast<double>(hz_) / 1e6;
  }

  /// Clock period, rounded to the nearest picosecond.
  [[nodiscard]] constexpr Picoseconds period() const {
    constexpr std::uint64_t kPsPerSecond = 1'000'000'000'000ULL;
    return Picoseconds{(kPsPerSecond + hz_ / 2) / hz_};
  }

  constexpr auto operator<=>(const Frequency&) const = default;

private:
  std::uint64_t hz_ = 1;
};

/// Byte count for data transfers (explicit to avoid mixing with cycle counts).
class Bytes {
public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t count() const { return value_; }
  [[nodiscard]] constexpr double kib() const {
    return static_cast<double>(value_) / 1024.0;
  }

  constexpr auto operator<=>(const Bytes&) const = default;

  constexpr Bytes& operator+=(Bytes other) {
    value_ += other.value_;
    return *this;
  }
  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes{a.value_ + b.value_};
  }
  friend constexpr Bytes operator-(Bytes a, Bytes b) {
    return Bytes{a.value_ - b.value_};
  }

private:
  std::uint64_t value_ = 0;
};

/// Cycle count within a single clock domain.
class Cycles {
public:
  constexpr Cycles() = default;
  constexpr explicit Cycles(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t count() const { return value_; }

  constexpr auto operator<=>(const Cycles&) const = default;

  constexpr Cycles& operator+=(Cycles other) {
    value_ += other.value_;
    return *this;
  }
  friend constexpr Cycles operator+(Cycles a, Cycles b) {
    return Cycles{a.value_ + b.value_};
  }
  friend constexpr Cycles operator*(Cycles a, std::uint64_t k) {
    return Cycles{a.value_ * k};
  }

private:
  std::uint64_t value_ = 0;
};

/// Convert a cycle count in a clock domain to global picosecond duration.
[[nodiscard]] constexpr Picoseconds cycles_to_time(Cycles cycles,
                                                   Frequency clock) {
  return Picoseconds{cycles.count() * clock.period().count()};
}

/// Cycles (rounded up) a duration spans in a clock domain.
[[nodiscard]] constexpr Cycles time_to_cycles(Picoseconds time,
                                              Frequency clock) {
  const std::uint64_t period = clock.period().count();
  return Cycles{(time.count() + period - 1) / period};
}

/// A non-negative duration in seconds, rounded half up to picoseconds;
/// Picoseconds::seconds() round-trips exactly through it.
[[nodiscard]] constexpr Picoseconds to_picoseconds(double seconds) {
  return Picoseconds{static_cast<std::uint64_t>(seconds * 1e12 + 0.5)};
}

[[nodiscard]] std::string format_time(Picoseconds t);
[[nodiscard]] std::string format_bytes(Bytes b);

}  // namespace hybridic
