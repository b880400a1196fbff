#include "io/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace sattn {
namespace {

const JsonValue& null_sentinel() {
  static const JsonValue* v = new JsonValue();
  return *v;
}

}  // namespace

JsonValue& JsonValue::push_back(JsonValue v) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
  return items_.back();
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (!is_array() || i >= items_.size()) return null_sentinel();
  return items_[i];
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return null_sentinel();
}

bool JsonValue::has(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

std::string json_escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  if (v == 0.0) return "0";  // also canonicalizes -0
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += json_number(num_); break;
    case Kind::kString:
      out.push_back('"');
      out += json_escape_string(str_);
      out.push_back('"');
      break;
    case Kind::kArray:
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_pad(depth);
      out.push_back(']');
      break;
    case Kind::kObject:
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        out.push_back('"');
        out += json_escape_string(members_[i].first);
        out += pretty ? "\": " : "\":";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_pad(depth);
      out.push_back('}');
      break;
  }
}

std::string JsonValue::to_string(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent >= 0) out.push_back('\n');
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  StatusOr<JsonValue> parse() {
    skip_ws();
    auto v = parse_value();
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after JSON value");
    return v;
  }

 private:
  Status fail(const std::string& what) const {
    return Status(StatusCode::kInvalidArgument,
                  detail::status_msg("json parse error at byte ", pos_, ": ", what));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  StatusOr<JsonValue> parse_value() {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kJsonMaxDepth) + " levels");
        }
        ++depth_;
        auto v = s_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        auto str = parse_string();
        if (!str.ok()) return str.status();
        return JsonValue(std::move(str).value());
      }
      case 't':
        if (literal("true")) return JsonValue(true);
        return fail("bad literal");
      case 'f':
        if (literal("false")) return JsonValue(false);
        return fail("bad literal");
      case 'n':
        if (literal("null")) return JsonValue();
        return fail("bad literal");
      default: return parse_number();
    }
  }

  StatusOr<std::string> parse_string() {
    if (!consume('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported by design).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  StatusOr<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number '" + tok + "'");
    return JsonValue(v);
  }

  StatusOr<JsonValue> parse_array() {
    consume('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      skip_ws();
      auto v = parse_value();
      if (!v.ok()) return v;
      arr.push_back(std::move(v).value());
      skip_ws();
      if (consume(']')) return arr;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> parse_object() {
    consume('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto v = parse_value();
      if (!v.ok()) return v;
      obj.set(std::move(key).value(), std::move(v).value());
      skip_ws();
      if (consume('}')) return obj;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

StatusOr<JsonValue> parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace sattn
