// Minimal JSON document model: serialize for the run reports
// (io/run_report.h), parse for the engine_top NDJSON reader
// (tools/engine_top.cpp) and the tests. Deliberately
// small — no SAX interface, no streaming, objects keep insertion order so
// serialization is deterministic and golden-file-testable.
//
// Numbers are doubles serialized with std::to_chars (shortest round-trip
// form), so write -> parse -> write is byte-identical.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace sattn {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                       // NOLINT
  JsonValue(double n) : kind_(Kind::kNumber), num_(n) {}                    // NOLINT
  JsonValue(int n) : kind_(Kind::kNumber), num_(n) {}                      // NOLINT
  JsonValue(long long n) : kind_(Kind::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  JsonValue(std::size_t n) : kind_(Kind::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}               // NOLINT
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}    // NOLINT

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double as_number(double fallback = 0.0) const { return is_number() ? num_ : fallback; }
  const std::string& as_string() const { return str_; }

  // Array access.
  std::size_t size() const { return is_array() ? items_.size() : members_.size(); }
  JsonValue& push_back(JsonValue v);
  const JsonValue& at(std::size_t i) const;  // kNull sentinel when out of range

  // Object access: get() returns a kNull sentinel for missing keys, so
  // chained lookups over partial documents are safe.
  JsonValue& set(const std::string& key, JsonValue v);
  const JsonValue& get(const std::string& key) const;
  bool has(const std::string& key) const;

  // Serialization. `indent` < 0 gives compact single-line output.
  std::string to_string(int indent = 2) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;   // kObject, insertion order
};

// Strict-enough parser for the documents this repo writes: objects, arrays,
// strings with \" \\ \/ \b \f \n \r \t and \uXXXX (BMP only) escapes,
// numbers, true/false/null. Trailing garbage after the top-level value is
// an error, and so is nesting arrays/objects deeper than kJsonMaxDepth (the
// parser recurses once per level; the cap keeps hostile input off the
// stack). Every error is kInvalidArgument.
inline constexpr int kJsonMaxDepth = 64;
StatusOr<JsonValue> parse_json(const std::string& text);

// JSON string escaping shared with the serializer.
std::string json_escape_string(const std::string& s);

// Shortest round-trip decimal form of a double (std::to_chars); "0" for
// negative zero, and "null" is never produced (NaN/inf clamp to 0).
std::string json_number(double v);

}  // namespace sattn
