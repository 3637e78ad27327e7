// Text codecs shared by every reader and writer of HybridIC's formats:
// fixed-width hex for hashes, bit-exact hex-floats for the store and
// journal, the 17-digit decimal of the CSV and JSON writers, and the strict
// number parsing behind every codec field, flag and JSON value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hybridic::util {

/// `value` as 16 lower-case hex digits, zero padded.
[[nodiscard]] std::string hex16(std::uint64_t value);

/// Exactly 16 lower-case hex digits back to their value.
[[nodiscard]] bool parse_hex16(std::string_view text, std::uint64_t& value);

/// Bit-exact C99 hex-float ("0x1.8p+1", "-0x0p+0", "inf"); parse_double
/// reads it back to the identical bit pattern.
[[nodiscard]] std::string hexf(double value);

/// `value` as a std::ostringstream prints it at precision 17: the
/// round-trip decimal of the CSV, REPORT and JSON writers.
[[nodiscard]] std::string decimal17(double value);

/// One or more ASCII digits, nothing else (no sign, no space), that fit in
/// 64 bits.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& value);

/// parse_u64 restricted to 32 bits.
[[nodiscard]] bool parse_u32(std::string_view text, std::uint32_t& value);

/// `text` as strtod reads it (hex-floats and "inf" included); false when
/// `text` is empty or strtod stops at a byte other than NUL.
[[nodiscard]] bool parse_double(const std::string& text, double& value);

/// "0" or "1".
[[nodiscard]] bool parse_bool(std::string_view text, bool& value);

/// Space-separated fields; empty when any field is empty (a leading,
/// trailing or doubled space).
[[nodiscard]] std::vector<std::string> split_fields(const std::string& line);

/// Sequential reader over a line-oriented payload. Every take_* returns
/// false on a shape violation; callers treat that as a malformed payload.
class LineReader {
public:
  explicit LineReader(const std::string& text) : text_(text) {}

  /// The next '\n'-terminated line, without its newline.
  bool take_line(std::string& line);

  /// A line "<tag> <rest>"; fails unless the tag matches.
  bool take_tagged(const std::string& tag, std::string& rest);

  /// A line equal to `expected`.
  bool take_exact(const std::string& expected);

  /// A "<tag> <len>" line, then exactly len raw bytes and a newline.
  bool take_sized(const std::string& tag, std::string& value);

  /// Exactly `len` raw bytes and a newline.
  bool take_raw(std::uint64_t len, std::string& value);

  [[nodiscard]] bool at_end() const { return pos_ == text_.size(); }

private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace hybridic::util
