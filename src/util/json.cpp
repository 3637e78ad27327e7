#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "util/text.hpp"

namespace hybridic::util {
namespace {

class Parser {
public:
  Parser(const std::string& text, std::string& error)
      : text_(text), error_(error) {}

  bool document(JsonObject& out) {
    skip_ws();
    if (!parse_object(out, /*nested=*/false)) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size() || fail("trailing characters after '}'");
  }

private:
  bool fail(const std::string& message) {
    error_ = message;
    return false;
  }

  bool parse_object(JsonObject& out, bool nested) {
    if (!take('{')) {
      return fail("expected '{'");
    }
    skip_ws();
    if (take('}')) {
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) {
        return fail("expected a string key");
      }
      skip_ws();
      if (!take(':')) {
        return fail("expected ':' after key \"" + key + "\"");
      }
      skip_ws();
      JsonValue value;
      if (!parse_value(key, value, nested)) {
        return false;
      }
      if (!out.emplace(key, std::move(value)).second) {
        return fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (take(',')) {
        skip_ws();
        continue;
      }
      if (take('}')) {
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_value(const std::string& key, JsonValue& out, bool nested) {
    if (pos_ < text_.size() && text_[pos_] == '{') {
      if (nested) {
        return fail("nested object at key \"" + key + "\"");
      }
      auto members = std::make_shared<JsonObject>();
      if (!parse_object(*members, /*nested=*/true)) {
        return false;
      }
      out.kind = JsonValue::Kind::kObject;
      out.members = std::move(members);
      return true;
    }
    bool ok = false;
    if (pos_ < text_.size() && text_[pos_] == '"') {
      out.kind = JsonValue::Kind::kString;
      ok = parse_string(out.text);
    } else if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = {JsonValue::Kind::kBool, "1", nullptr};
      ok = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = {JsonValue::Kind::kBool, "0", nullptr};
      ok = true;
    } else {
      out.kind = JsonValue::Kind::kNumber;
      ok = parse_number(out.text);
    }
    return ok || fail("bad value for key \"" + key + "\"");
  }

  bool parse_string(std::string& out) {
    if (!take('"')) {
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // ASCII code points only (what json_escape writes); anything
          // wider is out of protocol.
          std::size_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const std::size_t digit =
                pos_ < text_.size()
                    ? std::string_view{"0123456789abcdef"}.find(
                          static_cast<char>(std::tolower(
                              static_cast<unsigned char>(text_[pos_++]))))
                    : std::string_view::npos;
            if (digit == std::string_view::npos) {
              return false;
            }
            code = code * 16 + digit;
          }
          if (code >= 0x80) {
            return false;
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  /// JSON number grammar; the value must be finite as a double.
  bool parse_number(std::string& out) {
    const std::size_t start = pos_;
    (void)take('-');
    if (!take('0') && !digits()) {
      return false;
    }
    if (take('.') && !digits()) {
      return false;
    }
    if (take('e') || take('E')) {
      if (!take('+')) {
        (void)take('-');
      }
      if (!digits()) {
        return false;
      }
    }
    out = text_.substr(start, pos_ - start);
    double parsed = 0.0;
    return parse_double(out, parsed) && std::isfinite(parsed);
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool take(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json_object(const std::string& text, JsonObject& out,
                       std::string& error) {
  out.clear();
  return Parser{text, error}.document(out);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace hybridic::util
