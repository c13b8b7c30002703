// Minimal JSON value model, parser and serializer.
//
// Scenario files, ingest cursors, ROA tables and reports are JSON;
// parse() builds a Value tree for them. The grammar lives in one place,
// json::Reader (reader.hpp): the full JSON grammar except for \uXXXX
// surrogate pairs outside the BMP (sufficient for config files, which
// are ASCII in practice). The ownership config, which reaches tens of
// megabytes, drives the Reader directly and builds no Value tree.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace artemis::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps object keys ordered, making serialization deterministic.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

std::string_view to_string(Type t);

/// Thrown on malformed documents and on type-mismatched accessors.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// A JSON value. Value-semantic; copies are deep.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double n) : type_(Type::kNumber), num_(n) {}
  Value(int n) : type_(Type::kNumber), num_(n) {}
  Value(std::int64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Value(std::uint64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), arr_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< also rejects non-integral and out-of-int64 numbers
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; returns nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Object member lookup that throws when the key is missing.
  const Value& at(std::string_view key) const;

  /// Typed lookups with defaults, for ergonomic config reading.
  bool get_bool(std::string_view key, bool fallback) const;
  double get_number(std::string_view key, double fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  std::string get_string(std::string_view key, std::string_view fallback) const;

  bool operator==(const Value& other) const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parses a complete JSON document; trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Parses the file at `path`; throws JsonError (unreadable / malformed).
Value parse_file(const std::string& path);

}  // namespace artemis::json
