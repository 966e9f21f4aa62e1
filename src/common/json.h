// The one JSON reader in the tree: a strict RFC 8259 DOM parser and the
// matching string quoter. Scenario specs (scenario/spec.cc) and the
// observability schema validators (obs/json_lint.cc) both read through
// parse_json, so a document parses the same everywhere or is rejected
// everywhere.
//
// Strict beyond the grammar:
//   * duplicate object keys are errors (no silent last-wins);
//   * \uXXXX escapes decode to UTF-8, surrogate pairs combined; a lone
//     surrogate is an error;
//   * numbers must be finite doubles, and each keeps its source token, so
//     an integer field can be read exactly (64-bit seeds) with from_chars;
//   * nesting deeper than kMaxJsonDepth is an error, not a stack overflow.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace ncdrf {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

// A number as written: its value and its exact source text.
struct JsonNumber {
  double value = 0.0;
  std::string token;
};

struct JsonValue {
  std::variant<std::nullptr_t, bool, JsonNumber, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_number() const { return std::holds_alternative<JsonNumber>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool boolean() const { return std::get<bool>(v); }
  double number() const { return std::get<JsonNumber>(v).value; }
  const std::string& number_token() const {
    return std::get<JsonNumber>(v).token;
  }
  const std::string& string() const { return std::get<std::string>(v); }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
};

// Deepest array/object nesting parse_json accepts. The artifacts this
// repository writes nest fewer than 10 levels.
inline constexpr int kMaxJsonDepth = 256;

// Parses one complete document into *out. Returns "" on success or a
// one-line "<what> at offset N"; *out is unspecified on failure.
std::string parse_json(const std::string& text, JsonValue* out);

// `text` as a JSON string literal, quotes included: '"' and '\' escaped,
// newline and tab as \n and \t, other control bytes as \u00XX, every
// other byte (UTF-8 included) verbatim.
std::string json_quote(const std::string& text);

}  // namespace ncdrf
