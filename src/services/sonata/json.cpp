#include "services/sonata/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sym::json {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

const Value* Value::find_path(const std::string& path) const {
  const Value* cur = this;
  std::size_t i = 0;
  while (i < path.size() && cur != nullptr) {
    if (path[i] == '[') {
      const std::size_t close = path.find(']', i);
      if (close == std::string::npos) return nullptr;
      const long idx = std::strtol(path.c_str() + i + 1, nullptr, 10);
      if (!cur->is_array() || idx < 0 ||
          static_cast<std::size_t>(idx) >= cur->as_array().size()) {
        return nullptr;
      }
      cur = &cur->as_array()[static_cast<std::size_t>(idx)];
      i = close + 1;
      if (i < path.size() && path[i] == '.') ++i;
    } else {
      std::size_t end = i;
      while (end < path.size() && path[end] != '.' && path[end] != '[') ++end;
      cur = cur->find(path.substr(i, end - i));
      i = end;
      if (i < path.size() && path[i] == '.') ++i;
    }
  }
  return cur;
}

bool Value::operator==(const Value& o) const {
  if (v_.index() == o.v_.index()) return v_ == o.v_;
  if (is_number() && o.is_number()) {
    // 1 == 1.0 for query friendliness.
    return as_number() == o.as_number();
  }
  return v_ == o.v_;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const char* what) const {
    throw ParseError(what, pos_);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= s_.size()) throw ParseError("unexpected end", pos_);
    return s_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail("unexpected character");
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected member name");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value(std::move(obj));
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_unicode_escape(); break;
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > s_.size()) fail("bad \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit");
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs folded to U+FFFD).
    std::string out;
    if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '+'/'-' only valid inside exponents; strtod validates.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      fail("bad number");
    }
    const std::string token = s_.substr(start, pos_ - start);
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value(static_cast<std::int64_t>(v));
      }
      // Above INT64_MAX but within uint64: keep every digit.
      if (s_[start] != '-') {
        errno = 0;
        const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end != nullptr && *end == '\0') {
          return Value(static_cast<std::uint64_t>(u));
        }
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    return Value(d);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_impl(std::string& out, const Value& v, int indent, int depth) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += x ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::int64_t> ||
                             std::is_same_v<T, std::uint64_t>) {
          out += std::to_string(x);
        } else if constexpr (std::is_same_v<T, double>) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", x);
          out += buf;
        } else if constexpr (std::is_same_v<T, std::string>) {
          dump_string(out, x);
        } else if constexpr (std::is_same_v<T, Array>) {
          out += '[';
          bool first = true;
          for (const auto& e : x) {
            if (!first) out += ',';
            first = false;
            newline(depth + 1);
            dump_impl(out, e, indent, depth + 1);
          }
          if (!x.empty()) newline(depth);
          out += ']';
        } else if constexpr (std::is_same_v<T, Object>) {
          out += '{';
          bool first = true;
          for (const auto& [k, e] : x) {
            if (!first) out += ',';
            first = false;
            newline(depth + 1);
            dump_string(out, k);
            out += pretty ? ": " : ":";
            dump_impl(out, e, indent, depth + 1);
          }
          if (!x.empty()) newline(depth);
          out += '}';
        }
      },
      v.storage());
}

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

std::string dump(const Value& v) {
  std::string out;
  dump_impl(out, v, -1, 0);
  return out;
}

std::string dump_pretty(const Value& v) {
  std::string out;
  dump_impl(out, v, 2, 0);
  return out;
}

}  // namespace sym::json
