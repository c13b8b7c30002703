#include <gtest/gtest.h>

#include <string>

#include "artemis/config.hpp"

namespace artemis::core {
namespace {

constexpr std::string_view kSampleConfig = R"({
  "prefixes": [
    {"prefix": "10.0.0.0/23", "origins": [65001], "neighbors": [174, 3356]},
    {"prefix": "192.0.2.0/24", "origins": [65001, 65002]}
  ],
  "mitigation": {
    "deaggregation_floor": 24,
    "reannounce_exact": false,
    "auto_mitigate": true
  }
})";

TEST(ConfigTest, FromJsonParsesEverything) {
  const auto config = Config::from_json_text(kSampleConfig);
  ASSERT_EQ(config.owned().size(), 2u);
  const auto& first = config.owned()[0];
  EXPECT_EQ(first.prefix.to_string(), "10.0.0.0/23");
  EXPECT_TRUE(first.legitimate_origin(65001));
  EXPECT_TRUE(first.legitimate_neighbor(174));
  EXPECT_TRUE(first.legitimate_neighbor(3356));
  const auto& second = config.owned()[1];
  EXPECT_EQ(second.legitimate_origins.size(), 2u);
  EXPECT_TRUE(second.legitimate_neighbors.empty());
  EXPECT_EQ(config.mitigation().deaggregation_floor, 24);
  EXPECT_FALSE(config.mitigation().reannounce_exact);
  EXPECT_TRUE(config.mitigation().auto_mitigate);
}

TEST(ConfigTest, MitigationSectionOptional) {
  const auto config =
      Config::from_json_text(R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1]}]})");
  EXPECT_EQ(config.mitigation().deaggregation_floor, 24);
  EXPECT_TRUE(config.mitigation().reannounce_exact);
}

TEST(ConfigTest, RejectsBadDocuments) {
  EXPECT_THROW(Config::from_json_text("{}"), json::JsonError);
  EXPECT_THROW(Config::from_json_text(R"({"prefixes":[{"prefix":"bad","origins":[1]}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      Config::from_json_text(R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[]}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      Config::from_json_text(R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[0]}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      Config::from_json_text(
          R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1]}],
              "mitigation":{"deaggregation_floor":0}})"),
      std::invalid_argument);
  EXPECT_THROW(
      Config::from_json_text(
          R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1],"neighbors":[-5]}]})"),
      std::invalid_argument);
  // 2^32 + 24: range-checked as 64 bits, not narrowed to 24 first.
  EXPECT_THROW(
      Config::from_json_text(
          R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1]}],
              "mitigation":{"deaggregation_floor":4294967320}})"),
      std::invalid_argument);
  // Beyond int64: a JsonError, as Value::as_int, never a wrapped value.
  EXPECT_THROW(
      Config::from_json_text(R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1e19]}]})"),
      json::JsonError);
}

TEST(ConfigTest, ErrorsNameAByteOffset) {
  const std::string text = R"({"prefixes":[{"prefix":"10.0.0.0/33","origins":[1]}]})";
  try {
    Config::from_json_text(text);
    FAIL() << "accepted a /33";
  } catch (const std::invalid_argument& e) {
    // The offset of the bad value's opening quote.
    const std::string want = "at offset " + std::to_string(text.find("\"10.0.0.0/33"));
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  try {
    Config::from_json_text(R"({"prefixes":[}])");
    FAIL() << "accepted a syntax error";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 13"), std::string::npos) << e.what();
  }
}

TEST(ConfigTest, MembersLoadInAnyOrder) {
  // The serializer writes keys sorted ("origins" before "prefix",
  // "mitigation" before "prefixes"); hand-written files use any order.
  const auto a = Config::from_json_text(R"({"mitigation":{"auto_mitigate":false},
      "prefixes":[{"neighbors":[174],"origins":[65001],"prefix":"10.0.0.0/23"}]})");
  const auto b = Config::from_json_text(
      R"({"prefixes":[{"prefix":"10.0.0.0/23","origins":[65001],"neighbors":[174]}],
          "mitigation":{"auto_mitigate":false}})");
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_FALSE(a.mitigation().auto_mitigate);
  const auto v2 = Config::from_json_text(R"({
      "tenants":[{"prefixes":[{"origins":[1],"prefix":"10.0.0.0/8"}],"name":"x"}],
      "schema_version":2})");
  ASSERT_EQ(v2.tenants().size(), 1u);
  EXPECT_EQ(v2.tenants()[0].name, "x");
  EXPECT_EQ(v2.owned().size(), 1u);
}

TEST(ConfigTest, RepeatedMemberIsRejected) {
  // A DOM would keep the last copy silently; the one-pass loader names it.
  EXPECT_THROW(Config::from_json_text(
                   R"({"prefixes":[],"prefixes":[{"prefix":"10.0.0.0/8","origins":[1]}]})"),
               json::JsonError);
  EXPECT_THROW(Config::from_json_text(
                   R"({"prefixes":[{"prefix":"10.0.0.0/8","origins":[1],"origins":[2]}]})"),
               json::JsonError);
  // Members the loader ignores may repeat.
  EXPECT_NO_THROW(Config::from_json_text(R"({"note":1,"note":2,"prefixes":[]})"));
}

TEST(ConfigTest, ToJsonRoundTrip) {
  const auto config = Config::from_json_text(kSampleConfig);
  const auto round = Config::from_json_text(config.to_json().dump());
  ASSERT_EQ(round.owned().size(), 2u);
  EXPECT_EQ(round.owned()[0].prefix, config.owned()[0].prefix);
  EXPECT_TRUE(std::ranges::equal(round.owned()[0].legitimate_origins,
                                 config.owned()[0].legitimate_origins));
  EXPECT_TRUE(std::ranges::equal(round.owned()[0].legitimate_neighbors,
                                 config.owned()[0].legitimate_neighbors));
  EXPECT_EQ(round.mitigation().reannounce_exact, config.mitigation().reannounce_exact);
}

TEST(ConfigTest, MatchExactAndMoreSpecific) {
  const auto table = Config::from_json_text(kSampleConfig).build_table();
  const auto exact = table->match(net::Prefix::must_parse("10.0.0.0/23"));
  ASSERT_TRUE(exact);
  EXPECT_EQ(table->entry(exact).prefix.to_string(), "10.0.0.0/23");
  const auto sub = table->match(net::Prefix::must_parse("10.0.1.0/24"));
  ASSERT_TRUE(sub);
  EXPECT_EQ(table->entry(sub).prefix.to_string(), "10.0.0.0/23");
  EXPECT_FALSE(table->match(net::Prefix::must_parse("10.2.0.0/24")));
}

TEST(ConfigTest, MatchSuperPrefix) {
  const auto table = Config::from_json_text(kSampleConfig).build_table();
  const auto super = table->match(net::Prefix::must_parse("10.0.0.0/16"));
  ASSERT_TRUE(super);
  EXPECT_EQ(table->entry(super).prefix.to_string(), "10.0.0.0/23");
}

TEST(ConfigTest, MatchPrefersMostSpecificOwned) {
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/16"), {1});
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {2});
  const auto table = config.build_table();
  const auto hit = table->match(net::Prefix::must_parse("10.0.0.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(table->entry(hit).prefix.to_string(), "10.0.0.0/23");
}

TEST(ConfigTest, AddOwnedValidatesOrigins) {
  Config config;
  EXPECT_THROW(config.add_owned(net::Prefix::must_parse("10.0.0.0/8"), {}),
               std::invalid_argument);
  EXPECT_TRUE(config.owns_nothing());
}

}  // namespace
}  // namespace artemis::core
