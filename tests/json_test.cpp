#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "json/json.hpp"
#include "json/reader.hpp"

namespace artemis::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, ScientificNotation) {
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").as_number(), 0.025);
  EXPECT_DOUBLE_EQ(parse("-1.5e+1").as_number(), -15.0);
}

TEST(JsonParseTest, NestedStructures) {
  const auto v = parse(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.is_object());
  const auto& arr = v.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1].as_int(), 2);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
}

TEST(JsonParseTest, WhitespaceTolerated) {
  const auto v = parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("a\tb")").as_string(), "a\tb");
  EXPECT_EQ(parse(R"("a\/b")").as_string(), "a/b");
}

TEST(JsonParseTest, UnicodeEscapes) {
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse(R"("€")").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_THROW(parse(""), JsonError);
  EXPECT_THROW(parse("{"), JsonError);
  EXPECT_THROW(parse("[1,]"), JsonError);
  EXPECT_THROW(parse("{\"a\":}"), JsonError);
  EXPECT_THROW(parse("tru"), JsonError);
  EXPECT_THROW(parse("1 2"), JsonError);
  EXPECT_THROW(parse("01"), JsonError);  // leading zero then trailing digit
  EXPECT_THROW(parse("\"unterminated"), JsonError);
  EXPECT_THROW(parse("\"bad\\q\""), JsonError);
  EXPECT_THROW(parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(parse("1."), JsonError);
  EXPECT_THROW(parse("1e"), JsonError);
  EXPECT_THROW(parse("[1 2]"), JsonError);
  EXPECT_THROW(parse("1e999"), JsonError);  // outside double
  EXPECT_THROW(parse("{1:2}"), JsonError);
}

TEST(JsonParseTest, RejectsControlCharInString) {
  const std::string bad = std::string("\"a") + '\x01' + "b\"";
  EXPECT_THROW(parse(bad), JsonError);
}

TEST(JsonParseTest, RejectsEscapedSurrogatePairs) {
  // Raw UTF-8 beyond the BMP is legal and passes through; \u-escaped
  // surrogate pairs are the unsupported construct.
  EXPECT_EQ(parse("\"\xF0\x9F\x98\x80\"").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(parse(R"("\ud83d\ude00")"), JsonError);
}

TEST(JsonParseTest, DeepNestingGuard) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_THROW(parse(deep), JsonError);
}

TEST(JsonAccessTest, TypeMismatchThrows) {
  const auto v = parse("{\"a\":1}");
  EXPECT_THROW(v.as_array(), JsonError);
  EXPECT_THROW(v.at("a").as_string(), JsonError);
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonAccessTest, AsIntRejectsFractions) {
  EXPECT_THROW(parse("1.5").as_int(), JsonError);
  EXPECT_EQ(parse("2.0").as_int(), 2);
}

TEST(JsonAccessTest, AsIntRejectsOutOfRangeWithoutOverflow) {
  // Converting a double outside int64 is undefined behaviour; as_int must
  // check the range first (a -fsanitize=float-cast-overflow build aborts
  // here otherwise).
  EXPECT_THROW(parse("1e19").as_int(), JsonError);
  EXPECT_THROW(parse("-1e19").as_int(), JsonError);
  EXPECT_THROW(parse("9223372036854775808").as_int(), JsonError);  // 2^63
  EXPECT_EQ(parse("-9223372036854775808").as_int(),                 // -2^63
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse("1e19").dump(), "1e+19");  // dump checks the range first too
}

TEST(JsonAccessTest, TypedGettersWithDefaults) {
  const auto v = parse(R"({"b":true,"n":3,"s":"x"})");
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_FALSE(v.get_bool("nope", false));
  EXPECT_EQ(v.get_int("n", 9), 3);
  EXPECT_EQ(v.get_int("nope", 9), 9);
  EXPECT_EQ(v.get_string("s", "d"), "x");
  EXPECT_EQ(v.get_string("nope", "d"), "d");
  EXPECT_DOUBLE_EQ(v.get_number("n", 0.0), 3.0);
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const std::string text = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
  const auto v = parse(text);
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(v.dump(), text);
}

TEST(JsonDumpTest, PrettyPrintIndents) {
  const auto v = parse(R"({"a":[1]})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(JsonDumpTest, EscapesSpecials) {
  const Value v(std::string("a\"b\\c\nd"));
  EXPECT_EQ(v.dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDumpTest, IntegersWithoutDecimalPoint) {
  EXPECT_EQ(Value(5.0).dump(), "5");
  EXPECT_EQ(Value(-3).dump(), "-3");
  EXPECT_EQ(Value(0.5).dump(), "0.5");
}

TEST(JsonDumpTest, EmptyContainers) {
  EXPECT_EQ(Value(Array{}).dump(2), "[]");
  EXPECT_EQ(Value(Object{}).dump(2), "{}");
}

TEST(JsonDumpTest, ObjectKeysSorted) {
  Object o;
  o["z"] = Value(1);
  o["a"] = Value(2);
  EXPECT_EQ(Value(std::move(o)).dump(), R"({"a":2,"z":1})");
}

TEST(JsonEqualityTest, DeepEquality) {
  EXPECT_EQ(parse("[1,[2,3]]"), parse("[1,[2,3]]"));
  EXPECT_FALSE(parse("[1]") == parse("[2]"));
  EXPECT_FALSE(parse("1") == parse("\"1\""));
}

TEST(JsonFileTest, ParseFileRoundTrip) {
  const std::string path = testing::TempDir() + "/artemis_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"k":[1,2,3]})";
  }
  const auto v = parse_file(path);
  EXPECT_EQ(v.at("k").as_array().size(), 3u);
  std::remove(path.c_str());
}

TEST(JsonFileTest, MissingFileThrows) {
  EXPECT_THROW(parse_file("/nonexistent/path/x.json"), JsonError);
}

// ------------------------------------------------------------ Reader

TEST(JsonReaderTest, WalksDocumentsMemberByMember) {
  Reader in(R"( {"a": [1, "x", {}], "b": {"c": true, "d": null}, "e": -0.5e-3} )");
  std::string_view key;
  in.begin_object();
  ASSERT_TRUE(in.next_member(key));
  EXPECT_EQ(key, "a");
  in.begin_array();
  ASSERT_TRUE(in.next_element());
  std::int64_t one = 0;
  EXPECT_TRUE(in.read_int(one));
  EXPECT_EQ(one, 1);
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.peek(), Type::kString);
  EXPECT_EQ(in.read_string(), "x");
  ASSERT_TRUE(in.next_element());
  in.skip_value();
  EXPECT_FALSE(in.next_element());
  ASSERT_TRUE(in.next_member(key));
  EXPECT_EQ(key, "b");
  in.skip_value();
  ASSERT_TRUE(in.next_member(key));
  EXPECT_EQ(key, "e");
  EXPECT_DOUBLE_EQ(in.read_number(), -0.5e-3);
  EXPECT_FALSE(in.next_member(key));
  in.finish();
}

TEST(JsonReaderTest, ErrorsNameTheOffset) {
  try {
    parse("[1, 2, x]");
    FAIL();
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 7"), std::string::npos) << e.what();
  }
}

TEST(JsonReaderTest, ReadIntMatchesAsInt) {
  for (const std::string_view text :
       {"0", "-0", "7", "-7", "65001", "4294967295", "123456789012345", "1234567890123456",
        "9007199254740993", "2.0", "1e2", "6.5001e4", "-9223372036854775808",
        "9223372036854775807", "1.5", "1e19", "-1e19", "9223372036854775808", "1e-3"}) {
    Reader in(text);
    std::int64_t got = 0;
    const bool ok = in.read_int(got);
    in.finish();
    std::int64_t want = 0;
    bool want_ok = true;
    try {
      want = parse(text).as_int();
    } catch (const JsonError&) {
      want_ok = false;
    }
    EXPECT_EQ(ok, want_ok) << text;
    if (ok && want_ok) {
      EXPECT_EQ(got, want) << text;
    }
  }
}

TEST(JsonReaderTest, EscapedStringsReuseOneBuffer) {
  Reader in(R"(["pl\u0061in", "esc\taped", "again\n"])");
  in.begin_array();
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.read_string(), "plain");
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.read_string(), "esc\taped");
  ASSERT_TRUE(in.next_element());
  EXPECT_EQ(in.read_string(), "again\n");
  EXPECT_FALSE(in.next_element());
  in.finish();
}

}  // namespace
}  // namespace artemis::json
