// Pull-style JSON reader: walks one complete document token by token
// without building a json::Value tree.
//
// The ownership config is the one JSON document that reaches the
// megabyte scale (a 1M-prefix config is ~47 MiB), and a SIGHUP reload
// re-reads it while ingest waits. Config::from_json_text drives this
// reader in one pass and writes each entry straight into the Config, so
// a load holds no DOM copy of the document. Strings come back as views
// into the text (or into one reused scratch buffer when they carry
// escapes), numbers are converted in place: steady state, reading a
// token allocates nothing.
//
// It is the one JSON grammar in the library (json::parse builds its
// Value tree by driving a Reader): RFC 8259 numbers, strings with BMP
// \u escapes only, a 256-level nesting guard. Every error is a
// JsonError whose message ends in "at offset N".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "json/json.hpp"

namespace artemis::json {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// The type of the next value (leading whitespace skipped). Throws on a
  /// byte that cannot start a value, at end of input, or past the
  /// nesting limit.
  Type peek() {
    skip_ws();
    if (depth_ > 256) fail("nesting too deep");
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return Type::kObject;
      case '[': return Type::kArray;
      case '"': return Type::kString;
      case 't':
      case 'f': return Type::kBool;
      case 'n': return Type::kNull;
      default: return Type::kNumber;  // scan_number rejects the rest
    }
  }

  /// Consumes the '{' / '[' that opens the next value.
  void begin_object();
  void begin_array();

  /// Object iteration: reads the next `"key":` and returns true, leaving
  /// the reader at the member's value, or consumes the closing '}' and
  /// returns false. `key` is valid until the next string is read.
  bool next_member(std::string_view& key);

  /// Array iteration: returns true positioned at the next element, or
  /// consumes the closing ']' and returns false.
  bool next_element() {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      first_ = false;  // the enclosing container holds this array
      return false;
    }
    if (!first_) expect(',');
    first_ = false;
    return true;
  }

  /// Typed reads of the next value; each throws on a type mismatch.
  /// read_string's view is valid until the next string is read.
  std::string_view read_string();
  double read_number();
  /// Reads a number. Returns false (the number consumed) when it is not
  /// an integer representable as int64 — the cases Value::as_int rejects.
  bool read_int(std::int64_t& out);
  bool read_bool();

  /// Consumes the next value, whatever it is, checking its syntax.
  void skip_value();

  /// Requires that only whitespace remains.
  void finish();

  /// Byte offset of the next unread character.
  std::size_t offset() const { return pos_; }

  /// Throws JsonError("<why> at offset <offset()>").
  [[noreturn]] void fail(std::string_view why) const;

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  void expect(char c);
  /// Scans the number token at pos_; returns its end.
  std::size_t scan_number();
  void read_literal(std::string_view literal);
  /// Decodes the escaped string starting at `start` (after the quote)
  /// into scratch_.
  std::string_view read_escaped(std::size_t start);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;       ///< containers currently open
  bool first_ = false;  ///< no member/element read yet in the open container
  std::string scratch_;
};

}  // namespace artemis::json
