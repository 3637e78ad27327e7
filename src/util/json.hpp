// The one JSON dialect HybridIC reads and writes: an object whose values
// are strings, numbers or bools, where an object value may nest one level
// deep (the reproducer's "config"). Whitespace is space, tab, CR and LF;
// numbers follow the JSON grammar and must be finite; duplicate keys,
// unknown escapes and raw control bytes in strings are rejected. Errors
// are returned, never thrown, so each boundary maps them to its own
// taxonomy (serve: usage/2, reproducer: ConfigError).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace hybridic::util {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kObject };
  Kind kind = Kind::kString;
  /// Decoded string, number as written, or "0"/"1" for a bool.
  std::string text;
  /// A kObject value's members (never objects themselves).
  std::shared_ptr<const JsonObject> members;
};

/// Parse `text` as one object into `out`; false with a message in `error`
/// when it is not one.
[[nodiscard]] bool parse_json_object(const std::string& text, JsonObject& out,
                                     std::string& error);

/// `text` escaped for a JSON string body: quote, backslash, \n, \t and \r
/// by name, other control bytes as \u00XX.
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace hybridic::util
