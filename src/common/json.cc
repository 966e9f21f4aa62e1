#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace ncdrf {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  // Parses one complete document; error() is non-empty on failure.
  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (error_.empty() && pos_ != text_.size()) {
      fail("trailing characters after JSON value");
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) error_ = what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool consume(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        return {};
      }
      ++depth_;
      JsonValue value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return JsonValue{parse_string()};
    if (literal("true")) return JsonValue{true};
    if (literal("false")) return JsonValue{false};
    if (literal("null")) return JsonValue{nullptr};
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail(c == 't' || c == 'f' || c == 'n' ? "invalid literal"
                                          : "unexpected character");
    return {};
  }

  // Four hex digits of a \u escape; false if they are not there.
  bool hex4(unsigned* code) {
    *code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (pos_ >= text_.size()) return false;
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (!std::isxdigit(c)) return false;
      const int digit = std::isdigit(c) ? c - '0' : std::tolower(c) - 'a' + 10;
      *code = *code * 16 + static_cast<unsigned>(digit);
    }
    return true;
  }

  // Below 0x80 the code is its own byte. Otherwise a lead byte (one 1 bit
  // per byte of the sequence, a 0, then payload) and 10xxxxxx bytes.
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
      return;
    }
    const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out.push_back(
        static_cast<char>((0xFF << (7 - tail)) | (code >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
    }
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!hex4(&code)) {
            fail("invalid \\u escape");
            return out;
          }
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate in \\u escape");
            return out;
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned low = 0;
            if (!literal("\\u") || !hex4(&low) || low < 0xDC00 ||
                low > 0xDFFF) {
              fail("lone high surrogate in \\u escape");
              return out;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape character");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  // Consumes a run of digits; false if there was none.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    // Leading zeros are invalid JSON ("01"), a single zero is fine.
    bool ok = at('0') ? (++pos_, true) : digits();
    if (ok && at('.')) ok = (++pos_, digits());
    if (ok && (at('e') || at('E'))) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      ok = digits();
    }
    if (!ok) {
      fail("invalid number");
      return {};
    }
    JsonNumber number{0.0, text_.substr(start, pos_ - start)};
    number.value = std::strtod(number.token.c_str(), nullptr);
    if (!std::isfinite(number.value)) {
      fail("number out of range");
      return {};
    }
    return JsonValue{std::move(number)};
  }

  JsonValue parse_array() {
    consume('[');
    auto array = std::make_shared<JsonArray>();
    skip_ws();
    if (consume(']')) return JsonValue{array};
    while (error_.empty()) {
      array->push_back(parse_value());
      if (!error_.empty()) break;
      if (consume(']')) return JsonValue{array};
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        break;
      }
    }
    return {};
  }

  JsonValue parse_object() {
    consume('{');
    auto object = std::make_shared<JsonObject>();
    skip_ws();
    if (consume('}')) return JsonValue{object};
    while (error_.empty()) {
      skip_ws();
      std::string key = parse_string();
      if (!error_.empty()) break;
      if (object->count(key) != 0) {
        fail("duplicate key " + json_quote(key));
        break;
      }
      if (!consume(':')) {
        fail("expected ':' in object");
        break;
      }
      (*object)[std::move(key)] = parse_value();
      if (!error_.empty()) break;
      if (consume('}')) return JsonValue{object};
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        break;
      }
    }
    return {};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::string parse_json(const std::string& text, JsonValue* out) {
  Parser parser(text);
  *out = parser.parse();
  return parser.error();
}

std::string json_quote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace ncdrf
