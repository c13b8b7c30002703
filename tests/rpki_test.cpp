#include <gtest/gtest.h>

#include "artemis/detection.hpp"
#include "rpki/roa.hpp"

namespace artemis::rpki {
namespace {

Roa make_roa(std::string_view prefix, bgp::Asn asn, int max_length = 0) {
  Roa roa;
  roa.prefix = net::Prefix::must_parse(prefix);
  roa.asn = asn;
  roa.max_length = max_length;
  return roa;
}

TEST(RoaTest, EffectiveMaxLengthDefaultsToPrefixLength) {
  EXPECT_EQ(make_roa("10.0.0.0/23", 1).effective_max_length(), 23);
  EXPECT_EQ(make_roa("10.0.0.0/23", 1, 24).effective_max_length(), 24);
}

TEST(RoaTableTest, AddValidation) {
  RoaTable table;
  EXPECT_THROW(table.add(make_roa("10.0.0.0/23", bgp::kNoAsn)), std::invalid_argument);
  EXPECT_THROW(table.add(make_roa("10.0.0.0/23", 1, 22)), std::invalid_argument);
  EXPECT_THROW(table.add(make_roa("10.0.0.0/23", 1, 33)), std::invalid_argument);
  table.add(make_roa("10.0.0.0/23", 1, 24));
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoaTableTest, NotFoundWithoutCoveringRoa) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001));
  EXPECT_EQ(table.validate(net::Prefix::must_parse("192.0.2.0/24"), 65001),
            Validity::kNotFound);
  // A ROA for a more-specific does NOT cover the less-specific route.
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/16"), 65001),
            Validity::kNotFound);
}

TEST(RoaTableTest, ValidExactMatch) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001));
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/23"), 65001),
            Validity::kValid);
}

TEST(RoaTableTest, InvalidWrongOrigin) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001));
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/23"), 666),
            Validity::kInvalid);
}

TEST(RoaTableTest, MaxLengthGovernsMoreSpecifics) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001, 24));
  // /24 within maxLength: valid for the right origin.
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.1.0/24"), 65001),
            Validity::kValid);
  // /25 exceeds maxLength: invalid even for the right origin (this is the
  // forged-more-specific defense ROAs provide).
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.1.0/25"), 65001),
            Validity::kInvalid);
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.1.0/24"), 666),
            Validity::kInvalid);
}

TEST(RoaTableTest, MultipleRoasAnyMatchIsValid) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001));
  table.add(make_roa("10.0.0.0/23", 65002));  // multi-origin (anycast)
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/23"), 65001),
            Validity::kValid);
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/23"), 65002),
            Validity::kValid);
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.0.0.0/23"), 666),
            Validity::kInvalid);
}

TEST(RoaTableTest, AncestorRoaCoversMoreSpecificAnnouncement) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/8", 65001, 24));
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.9.0.0/16"), 65001),
            Validity::kValid);
  EXPECT_EQ(table.validate(net::Prefix::must_parse("10.9.0.0/16"), 666),
            Validity::kInvalid);
}

TEST(RoaTableTest, CoveringEnumeratesAncestors) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/8", 1));
  table.add(make_roa("10.0.0.0/16", 2));
  table.add(make_roa("10.0.0.0/24", 3));
  table.add(make_roa("10.1.0.0/16", 4));  // sibling, not covering
  const auto covering = table.covering(net::Prefix::must_parse("10.0.0.0/24"));
  ASSERT_EQ(covering.size(), 3u);
  EXPECT_EQ(covering[0].asn, 1u);  // root-to-leaf order
  EXPECT_EQ(covering[1].asn, 2u);
  EXPECT_EQ(covering[2].asn, 3u);
}

TEST(RoaTableTest, JsonRoundTrip) {
  RoaTable table;
  table.add(make_roa("10.0.0.0/23", 65001, 24));
  table.add(make_roa("192.0.2.0/24", 65002));
  const auto round = RoaTable::from_json(table.to_json());
  EXPECT_EQ(round.size(), 2u);
  EXPECT_EQ(round.validate(net::Prefix::must_parse("10.0.1.0/24"), 65001),
            Validity::kValid);
  EXPECT_EQ(round.validate(net::Prefix::must_parse("192.0.2.0/24"), 65002),
            Validity::kValid);
}

TEST(RoaTableTest, FromJsonRejectsBadDocuments) {
  EXPECT_THROW(RoaTable::from_json(json::parse(R"({"roas":[{"prefix":"x","asn":1}]})")),
               std::invalid_argument);
  EXPECT_THROW(
      RoaTable::from_json(json::parse(R"({"roas":[{"prefix":"10.0.0.0/8","asn":0}]})")),
      std::invalid_argument);
  EXPECT_THROW(RoaTable::from_json(json::parse(R"({})")), json::JsonError);
}

TEST(ValidityTest, Names) {
  EXPECT_EQ(to_string(Validity::kValid), "valid");
  EXPECT_EQ(to_string(Validity::kInvalid), "invalid");
  EXPECT_EQ(to_string(Validity::kNotFound), "not-found");
}

// -------------------------------------------- detection-service coupling

core::Config empty_owned_config() {
  core::Config config;
  config.add_owned(net::Prefix::must_parse("203.0.113.0/24"), {7});
  return config;
}

feeds::Observation announce(std::string_view prefix, bgp::Asn origin) {
  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.source = "ris-live";
  obs.vantage = 9;
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath({9, origin});
  obs.delivered_at = SimTime::at_seconds(1);
  return obs;
}

TEST(DetectionRpkiTest, InvalidAnnouncementOutsideOwnedSpaceAlerts) {
  const auto config = empty_owned_config();
  RoaTable roas;
  roas.add(make_roa("10.0.0.0/23", 65001));
  core::DetectionOptions options;
  options.roa_table = &roas;
  core::DetectionService detector(config, options);

  detector.process(announce("10.0.0.0/23", 666));  // rpki-invalid
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, core::HijackType::kRpkiInvalid);
  EXPECT_EQ(detector.alerts()[0].offender, 666u);
}

TEST(DetectionRpkiTest, ValidAndNotFoundStaySilent) {
  const auto config = empty_owned_config();
  RoaTable roas;
  roas.add(make_roa("10.0.0.0/23", 65001));
  core::DetectionOptions options;
  options.roa_table = &roas;
  core::DetectionService detector(config, options);

  detector.process(announce("10.0.0.0/23", 65001));  // valid
  detector.process(announce("172.16.0.0/16", 666));  // not-found
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionRpkiTest, WithoutRoaTableNoRpkiAlerts) {
  const auto config = empty_owned_config();
  core::DetectionService detector(config);
  detector.process(announce("10.0.0.0/23", 666));
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionRpkiTest, OwnedSpaceChecksStillApplyWithRoaTable) {
  const auto config = empty_owned_config();
  RoaTable roas;
  core::DetectionOptions options;
  options.roa_table = &roas;
  core::DetectionService detector(config, options);
  detector.process(announce("203.0.113.0/24", 666));  // classic origin hijack
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, core::HijackType::kExactOrigin);
}

}  // namespace
}  // namespace artemis::rpki
