// Tracked containers: the instrumentation boundary applications code
// against. Every element access is reported to the QuadProfiler, exactly
// like QUAD's binary instrumentation observes loads/stores — but here the
// application runs natively and stays fully debuggable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "prof/quad.hpp"
#include "util/error.hpp"

namespace hybridic::prof {

/// A contiguous tracked array of trivially copyable `T`.
template <typename T>
class TrackedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "TrackedBuffer requires trivially copyable elements");

public:
  TrackedBuffer(QuadProfiler& profiler, std::string name, std::size_t count)
      : profiler_(&profiler),
        name_(std::move(name)),
        data_(count),
        base_(profiler.allocate(count * sizeof(T), alignof(T) > 8
                                                       ? alignof(T)
                                                       : 8)) {}

  TrackedBuffer(const TrackedBuffer&) = delete;
  TrackedBuffer& operator=(const TrackedBuffer&) = delete;
  TrackedBuffer(TrackedBuffer&&) noexcept = default;
  TrackedBuffer& operator=(TrackedBuffer&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t base_address() const { return base_; }

  /// Tracked element read.
  [[nodiscard]] T get(std::size_t index) const {
    bounds(index);
    profiler_->record_read(address(index), sizeof(T));
    return data_[index];
  }

  /// Tracked element write.
  void set(std::size_t index, T value) {
    bounds(index);
    profiler_->record_write(address(index), sizeof(T));
    data_[index] = value;
  }

  /// Tracked bulk read of [first, first+count).
  void read_range(std::size_t first, std::size_t count,
                  T* destination) const {
    bounds_range(first, count);
    profiler_->record_read(address(first), count * sizeof(T));
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(first), count,
                destination);
  }

  /// Tracked bulk write of [first, first+count).
  void write_range(std::size_t first, std::size_t count, const T* source) {
    bounds_range(first, count);
    profiler_->record_write(address(first), count * sizeof(T));
    std::copy_n(source, count,
                data_.begin() + static_cast<std::ptrdiff_t>(first));
  }

  /// Untracked peek for verification code (does not create edges).
  [[nodiscard]] T peek(std::size_t index) const {
    bounds(index);
    return data_[index];
  }

  /// Untracked poke for test setup (does not mark a producer).
  void poke(std::size_t index, T value) {
    bounds(index);
    data_[index] = value;
  }

  /// Proxy enabling natural `buf[i]` syntax with tracking.
  class Ref {
  public:
    Ref(TrackedBuffer& buffer, std::size_t index)
        : buffer_(&buffer), index_(index) {}

    operator T() const { return buffer_->get(index_); }  // NOLINT(google-explicit-constructor)
    Ref& operator=(T value) {
      buffer_->set(index_, value);
      return *this;
    }
    Ref& operator=(const Ref& other) {
      buffer_->set(index_, static_cast<T>(other));
      return *this;
    }
    Ref& operator+=(T value) { return *this = static_cast<T>(*this) + value; }
    Ref& operator-=(T value) { return *this = static_cast<T>(*this) - value; }

  private:
    TrackedBuffer* buffer_;
    std::size_t index_;
  };

  Ref operator[](std::size_t index) { return Ref{*this, index}; }
  T operator[](std::size_t index) const { return get(index); }

private:
  [[nodiscard]] std::uint64_t address(std::size_t index) const {
    return base_ + index * sizeof(T);
  }
  // Per-element checks: the message naming the buffer is built only when
  // the check fails.
  void bounds(std::size_t index) const {
    if (index >= data_.size()) {
      throw_out_of_bounds("index out of range");
    }
  }
  void bounds_range(std::size_t first, std::size_t count) const {
    // Never forms first + count, which could wrap past SIZE_MAX.
    if (count > data_.size() || first > data_.size() - count) {
      throw_out_of_bounds("range out of bounds");
    }
  }
  [[noreturn]] void throw_out_of_bounds(const char* what) const {
    throw ConfigError{"TrackedBuffer '" + name_ + "' " + what};
  }

  QuadProfiler* profiler_;
  std::string name_;
  std::vector<T> data_;
  std::uint64_t base_;
};

}  // namespace hybridic::prof
