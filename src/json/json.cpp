#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "json/reader.hpp"

namespace artemis::json {

std::string_view to_string(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void type_error(Type want, Type got) {
  throw JsonError(std::string("expected ") + std::string(to_string(want)) + ", got " +
                  std::string(to_string(got)));
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error(Type::kBool, type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error(Type::kNumber, type_);
  return num_;
}

std::int64_t Value::as_int() const {
  const double n = as_number();
  // Range first: converting a double outside int64 is undefined behaviour.
  if (!(n >= -0x1p63 && n < 0x1p63)) throw JsonError("number out of integer range");
  const auto i = static_cast<std::int64_t>(n);
  if (static_cast<double>(i) != n) throw JsonError("number is not an integer");
  return i;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error(Type::kString, type_);
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error(Type::kArray, type_);
  return arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error(Type::kObject, type_);
  return obj_;
}

Array& Value::as_array() {
  if (type_ != Type::kArray) type_error(Type::kArray, type_);
  return arr_;
}

Object& Value::as_object() {
  if (type_ != Type::kObject) type_error(Type::kObject, type_);
  return obj_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw JsonError("missing key: " + std::string(key));
  return *v;
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_bool() : fallback;
}

double Value::get_number(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_number() : fallback;
}

std::int64_t Value::get_int(std::string_view key, std::int64_t fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_int() : fallback;
}

std::string Value::get_string(std::string_view key, std::string_view fallback) const {
  const Value* v = find(key);
  return v != nullptr ? v->as_string() : std::string(fallback);
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: return obj_ == other.obj_;
  }
  return false;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double n) {
  if (std::fabs(n) < 1e15 && n == static_cast<double>(static_cast<std::int64_t>(n))) {
    out += std::to_string(static_cast<std::int64_t>(n));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: number_into(out, num_); break;
    case Type::kString: escape_into(out, str_); break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj_) {
        if (!first) out += ',';
        first = false;
        newline_indent(depth + 1);
        escape_into(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Builds the value the reader is at. Recursion is bounded by the
/// reader's nesting guard.
Value read_value(Reader& in) {
  switch (in.peek()) {
    case Type::kObject: {
      Object object;
      std::string_view key;
      in.begin_object();
      while (in.next_member(key)) {
        std::string name(key);  // the view dies at the next string read
        object[std::move(name)] = read_value(in);
      }
      return Value(std::move(object));
    }
    case Type::kArray: {
      Array array;
      in.begin_array();
      while (in.next_element()) array.push_back(read_value(in));
      return Value(std::move(array));
    }
    case Type::kString: return Value(std::string(in.read_string()));
    case Type::kNumber: return Value(in.read_number());
    case Type::kBool: return Value(in.read_bool());
    case Type::kNull: in.skip_value(); return Value(nullptr);
  }
  return Value();
}

}  // namespace

Value parse(std::string_view text) {
  Reader in(text);
  Value value = read_value(in);
  in.finish();
  return value;
}

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace artemis::json
