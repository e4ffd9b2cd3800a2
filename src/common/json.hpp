// Minimal, dependency-free JSON value type with a parser and a
// deterministic serializer.
//
// The experiment runner's inputs (declarative scenario grids) and outputs
// (sweep summaries) are JSON. The serializer is part of the reproducibility
// contract: object members keep insertion order, numbers are formatted with
// a fixed shortest-round-trip rule, and there is no locale or hash-order
// dependence, so the same value always serializes to the same bytes -- the
// property the determinism test battery (tests/test_runner_determinism.cpp)
// asserts across thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpas {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Object members preserve insertion order (deterministic serialization).
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : type_(Type::kNumber), number_(v) {}
  Json(std::uint64_t v)
      : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw ConfigError when the type does not match.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  /// Convenience lookups with defaults; throw ConfigError when the member
  /// exists but has the wrong type.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

  /// Appends (or replaces) an object member. The value becomes an object
  /// if it was null.
  Json& set(std::string key, Json value);
  /// Appends an array element. The value becomes an array if it was null.
  Json& push_back(Json value);

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws ConfigError with a line/column position on malformed input.
  static Json parse(std::string_view text);
  /// Reads and parses the file at `path`. Throws SystemError when it
  /// cannot be read, ConfigError when it is malformed.
  static Json load_file(const std::string& path);

  /// Serializes deterministically. indent < 0 => compact single line;
  /// indent >= 0 => pretty-printed with that many spaces per level and a
  /// trailing newline at top level.
  std::string dump(int indent = -1) const;

  bool operator==(const Json& other) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Formats a double exactly as the serializer does (integers without a
/// decimal point, otherwise shortest round-trip). Exposed so CSV/summary
/// writers can share the byte-stable formatting rule.
std::string json_number_to_string(double v);

}  // namespace hpas
