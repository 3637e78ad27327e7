#include "util/text.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace hybridic::util {

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(value >> (4 * i)) & 0xF];
  }
  return out;
}

bool parse_hex16(std::string_view text, std::uint64_t& value) {
  if (text.size() != 16) {
    return false;
  }
  value = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  return true;
}

std::string hexf(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return std::string{buf};
}

std::string decimal17(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

bool parse_u64(std::string_view text, std::uint64_t& value) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (UINT64_MAX - digit) / 10) {
      return false;
    }
    parsed = parsed * 10 + digit;
  }
  value = parsed;
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t& value) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, wide) || wide > UINT32_MAX) {
    return false;
  }
  value = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_double(const std::string& text, double& value) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return *end == '\0';
}

bool parse_bool(std::string_view text, bool& value) {
  if (text != "0" && text != "1") {
    return false;
  }
  value = text == "1";
  return true;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t sp = line.find(' ', pos);
    const std::size_t end = sp == std::string::npos ? line.size() : sp;
    if (end == pos) {
      return {};  // Empty field.
    }
    fields.push_back(line.substr(pos, end - pos));
    pos = end + (sp == std::string::npos ? 0 : 1);
    if (sp != std::string::npos && pos == line.size()) {
      return {};  // Trailing space.
    }
  }
  return fields;
}

bool LineReader::take_line(std::string& line) {
  const std::size_t nl = text_.find('\n', pos_);
  if (nl == std::string::npos) {
    return false;
  }
  line.assign(text_, pos_, nl - pos_);
  pos_ = nl + 1;
  return true;
}

bool LineReader::take_tagged(const std::string& tag, std::string& rest) {
  std::string line;
  if (!take_line(line) || line.rfind(tag + " ", 0) != 0) {
    return false;
  }
  rest = line.substr(tag.size() + 1);
  return true;
}

bool LineReader::take_exact(const std::string& expected) {
  std::string line;
  return take_line(line) && line == expected;
}

bool LineReader::take_sized(const std::string& tag, std::string& value) {
  std::string rest;
  std::uint64_t len = 0;
  return take_tagged(tag, rest) && parse_u64(rest, len) &&
         take_raw(len, value);
}

bool LineReader::take_raw(std::uint64_t len, std::string& value) {
  // `len` is untrusted: compare against the bytes left, never add to pos_.
  if (len >= text_.size() - pos_ || text_[pos_ + len] != '\n') {
    return false;
  }
  value.assign(text_, pos_, len);
  pos_ += len + 1;
  return true;
}

}  // namespace hybridic::util
