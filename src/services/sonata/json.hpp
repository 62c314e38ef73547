// services/sonata/json.hpp
//
// A self-contained JSON implementation for the Sonata document store
// (value model, recursive-descent parser, writer). Sonata stores JSON
// records as RPC metadata, so parse/serialize work here is genuine target
// CPU work in the Fig. 7 experiment.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace sym::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps member order deterministic for stable serialization.
using Object = std::map<std::string, Value>;

class Value {
 public:
  /// Integers are std::int64_t; std::uint64_t holds only values above
  /// INT64_MAX, so every integer has exactly one representation.
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t,
                               std::uint64_t, double, std::string, Array,
                               Object>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) {
    if (i <= static_cast<std::uint64_t>(INT64_MAX)) {
      v_ = static_cast<std::int64_t>(i);
    } else {
      v_ = i;
    }
  }
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_int() const noexcept {
    return std::holds_alternative<std::int64_t>(v_);
  }
  [[nodiscard]] bool is_double() const noexcept {
    return std::holds_alternative<double>(v_);
  }
  /// An integer above INT64_MAX (as_int() cannot hold it; as_uint() can).
  [[nodiscard]] bool is_uint() const noexcept {
    return std::holds_alternative<std::uint64_t>(v_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return is_int() || is_uint() || is_double();
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  /// Any non-negative integer, exactly. Throws std::bad_variant_access
  /// for a negative integer or a non-integer.
  [[nodiscard]] std::uint64_t as_uint() const {
    if (is_int() && std::get<std::int64_t>(v_) >= 0) {
      return static_cast<std::uint64_t>(std::get<std::int64_t>(v_));
    }
    return std::get<std::uint64_t>(v_);
  }
  [[nodiscard]] double as_number() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
    if (is_uint()) return static_cast<double>(std::get<std::uint64_t>(v_));
    return std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(v_);
  }
  [[nodiscard]] Object& as_object() { return std::get<Object>(v_); }

  /// Object member access; returns nullptr if absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Path access "a.b.c" with array indices "a[3].b".
  [[nodiscard]] const Value* find_path(const std::string& path) const;

  bool operator==(const Value& o) const;

  [[nodiscard]] const Storage& storage() const noexcept { return v_; }

 private:
  Storage v_;
};

/// Thrown on malformed input.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Parse a complete JSON document. Throws ParseError.
[[nodiscard]] Value parse(const std::string& text);

/// Compact serialization.
[[nodiscard]] std::string dump(const Value& v);

/// Pretty serialization with 2-space indents.
[[nodiscard]] std::string dump_pretty(const Value& v);

}  // namespace sym::json
