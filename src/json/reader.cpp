#include "json/reader.hpp"

#include <charconv>

namespace artemis::json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Digits json::Value holds exactly (< 2^53), so the integer fast path
/// and the double path agree on every value they both accept.
constexpr std::size_t kExactDigits = 15;

}  // namespace

void Reader::fail(std::string_view why) const {
  throw JsonError(std::string(why) + " at offset " + std::to_string(pos_));
}

void Reader::expect(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void Reader::begin_object() {
  if (peek() != Type::kObject) fail("expected '{'");
  ++pos_;
  ++depth_;
  first_ = true;
}

void Reader::begin_array() {
  if (peek() != Type::kArray) fail("expected '['");
  ++pos_;
  ++depth_;
  first_ = true;
}

bool Reader::next_member(std::string_view& key) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == '}') {
    ++pos_;
    --depth_;
    first_ = false;  // the enclosing container holds this object
    return false;
  }
  if (!first_) {
    expect(',');
    skip_ws();
  }
  first_ = false;
  if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
  key = read_string();
  skip_ws();
  expect(':');
  return true;
}

std::string_view Reader::read_string() {
  if (peek() != Type::kString) fail("expected string");
  const std::size_t start = ++pos_;
  for (std::size_t i = start; i < text_.size(); ++i) {
    const char c = text_[i];
    if (c == '"') {
      pos_ = i + 1;
      return text_.substr(start, i - start);
    }
    if (c == '\\') {
      pos_ = i;
      return read_escaped(start);
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      pos_ = i;
      fail("unescaped control character");
    }
  }
  pos_ = text_.size();
  fail("unexpected end of input");
}

std::string_view Reader::read_escaped(std::size_t start) {
  scratch_.assign(text_.substr(start, pos_ - start));
  const auto next = [&] {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  };
  for (;;) {
    const char c = next();
    if (c == '"') return scratch_;
    if (static_cast<unsigned char>(c) < 0x20) {
      --pos_;
      fail("unescaped control character");
    }
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    switch (next()) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = next();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("invalid \\u escape");
          }
        }
        // UTF-8, BMP only.
        if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs unsupported");
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xE0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("invalid escape");
    }
  }
}

std::size_t Reader::scan_number() {
  std::size_t i = pos_;
  const auto digit_at = [&](std::size_t at) { return at < text_.size() && is_digit(text_[at]); };
  if (i < text_.size() && text_[i] == '-') ++i;
  if (!digit_at(i)) {
    pos_ = i;
    fail("invalid number");
  }
  // RFC 8259: the integer part is either "0" or starts with 1-9.
  const std::size_t int_start = i;
  while (digit_at(i)) ++i;
  if (text_[int_start] == '0' && i - int_start > 1) {
    pos_ = i;
    fail("leading zeros not allowed");
  }
  if (i < text_.size() && text_[i] == '.') {
    ++i;
    if (!digit_at(i)) {
      pos_ = i;
      fail("digits required after decimal point");
    }
    while (digit_at(i)) ++i;
  }
  if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
    ++i;
    if (i < text_.size() && (text_[i] == '+' || text_[i] == '-')) ++i;
    if (!digit_at(i)) {
      pos_ = i;
      fail("digits required in exponent");
    }
    while (digit_at(i)) ++i;
  }
  return i;
}

double Reader::read_number() {
  if (peek() != Type::kNumber) fail("expected number");
  const std::size_t end = scan_number();
  double out = 0.0;
  const char* first = text_.data() + pos_;
  const char* last = text_.data() + end;
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) fail("invalid number");
  pos_ = end;
  return out;
}

bool Reader::read_int(std::int64_t& out) {
  if (peek() != Type::kNumber) fail("expected number");
  const std::size_t start = pos_;
  const std::size_t end = scan_number();
  const bool negative = text_[start] == '-';
  const std::size_t digits = end - start - (negative ? 1 : 0);
  bool plain = digits <= kExactDigits;
  std::int64_t value = 0;
  for (std::size_t i = start + (negative ? 1 : 0); plain && i < end; ++i) {
    if (!is_digit(text_[i])) {
      plain = false;
    } else {
      value = value * 10 + (text_[i] - '0');
    }
  }
  if (plain) {
    pos_ = end;
    out = negative ? -value : value;
    return true;
  }
  const double n = read_number();
  // The range check comes first: converting a double outside int64 is
  // undefined behaviour.
  if (!(n >= -0x1p63 && n < 0x1p63)) return false;
  out = static_cast<std::int64_t>(n);
  return static_cast<double>(out) == n;
}

void Reader::read_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
}

bool Reader::read_bool() {
  if (peek() != Type::kBool) fail("expected bool");
  const bool value = text_[pos_] == 't';
  read_literal(value ? "true" : "false");
  return value;
}

void Reader::skip_value() {
  switch (peek()) {
    case Type::kObject: {
      begin_object();
      std::string_view key;
      while (next_member(key)) skip_value();
      break;
    }
    case Type::kArray:
      begin_array();
      while (next_element()) skip_value();
      break;
    case Type::kString: read_string(); break;
    case Type::kNumber: {
      // read_int checks the syntax as read_number does, and skips the
      // double conversion for plain integers.
      std::int64_t ignored = 0;
      read_int(ignored);
      break;
    }
    case Type::kBool: read_bool(); break;
    case Type::kNull: read_literal("null"); break;
  }
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

}  // namespace artemis::json
