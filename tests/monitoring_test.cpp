#include <gtest/gtest.h>

#include <cmath>

#include "artemis/monitoring.hpp"

namespace artemis::core {
namespace {

Config victim_config() {
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  return config;
}

feeds::Observation obs(bgp::Asn vantage, std::string_view prefix,
                       std::vector<bgp::Asn> path, double at = 10.0,
                       feeds::ObservationType type =
                           feeds::ObservationType::kAnnouncement) {
  feeds::Observation o;
  o.type = type;
  o.source = "test";
  o.vantage = vantage;
  o.prefix = net::Prefix::must_parse(prefix);
  o.attrs.as_path = bgp::AsPath(std::move(path));
  o.event_time = SimTime::at_seconds(at);
  o.delivered_at = SimTime::at_seconds(at);
  return o;
}

const net::Prefix kOwned = net::Prefix::must_parse("10.0.0.0/23");

TEST(MonitoringTest, NoDataMeansUnknown) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  EXPECT_FALSE(monitoring.vantage_legitimate(9, kOwned).has_value());
  EXPECT_TRUE(std::isnan(monitoring.fraction_legitimate(kOwned)));
  EXPECT_FALSE(monitoring.all_legitimate(kOwned));
  EXPECT_EQ(monitoring.vantages_with_data(kOwned), 0u);
}

TEST(MonitoringTest, LegitimateRouteMarksVantage) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 2, 65001}));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), true);
  EXPECT_DOUBLE_EQ(monitoring.fraction_legitimate(kOwned), 1.0);
  EXPECT_TRUE(monitoring.all_legitimate(kOwned));
}

TEST(MonitoringTest, HijackedRouteFlipsVantage) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 2, 65001}, 10));
  monitoring.process(obs(9, "10.0.0.0/23", {9, 666}, 20));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), false);
  ASSERT_EQ(monitoring.changes().size(), 2u);
  EXPECT_TRUE(monitoring.changes()[0].legitimate);
  EXPECT_FALSE(monitoring.changes()[1].legitimate);
  EXPECT_EQ(monitoring.changes()[1].current_origin, 666u);
  EXPECT_EQ(monitoring.changes()[1].when, SimTime::at_seconds(20));
}

TEST(MonitoringTest, SubPrefixHijackDetectedViaLpm) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 2, 65001}, 10));
  // More-specific /24 by the attacker captures half the space.
  monitoring.process(obs(9, "10.0.1.0/24", {9, 666}, 20));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), false);
}

TEST(MonitoringTest, MitigationSlash24sRestoreLegitimacy) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 666}, 10));  // hijacked
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), false);
  monitoring.process(obs(9, "10.0.0.0/24", {9, 2, 65001}, 20));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), false);  // half restored
  monitoring.process(obs(9, "10.0.1.0/24", {9, 2, 65001}, 21));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), true);  // both halves
}

TEST(MonitoringTest, WithdrawalRemovesRoute) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 2, 65001}, 10));
  monitoring.process(
      obs(9, "10.0.0.0/23", {}, 20, feeds::ObservationType::kWithdrawal));
  EXPECT_EQ(monitoring.vantage_legitimate(9, kOwned), false);  // blackholed
}

TEST(MonitoringTest, FractionAcrossVantages) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(1, "10.0.0.0/23", {1, 65001}, 10));
  monitoring.process(obs(2, "10.0.0.0/23", {2, 65001}, 10));
  monitoring.process(obs(3, "10.0.0.0/23", {3, 666}, 10));
  monitoring.process(obs(4, "10.0.0.0/23", {4, 666}, 10));
  EXPECT_DOUBLE_EQ(monitoring.fraction_legitimate(kOwned), 0.5);
  EXPECT_EQ(monitoring.vantages_with_data(kOwned), 4u);
  EXPECT_FALSE(monitoring.all_legitimate(kOwned));
}

TEST(MonitoringTest, ChangeLogOnlyOnFlips) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.0/23", {9, 65001}, 10));
  monitoring.process(obs(9, "10.0.0.0/23", {9, 2, 65001}, 11));  // still legit
  monitoring.process(obs(9, "10.0.0.0/23", {9, 3, 65001}, 12));  // still legit
  EXPECT_EQ(monitoring.changes().size(), 1u);
}

TEST(MonitoringTest, OnChangeHandlerFires) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  std::vector<VantageChange> seen;
  monitoring.on_change([&](const VantageChange& change) { seen.push_back(change); });
  monitoring.process(obs(9, "10.0.0.0/23", {9, 65001}, 10));
  monitoring.process(obs(9, "10.0.0.0/23", {9, 666}, 20));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].vantage, 9u);
  EXPECT_TRUE(seen[0].legitimate);
  EXPECT_FALSE(seen[1].legitimate);
}

TEST(MonitoringTest, UnrelatedObservationsIgnored) {
  const auto config = victim_config();
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "203.0.113.0/24", {9, 7}, 10));
  EXPECT_EQ(monitoring.vantages_with_data(kOwned), 0u);
  EXPECT_TRUE(monitoring.changes().empty());
}

TEST(MonitoringTest, HostPrefixOwnedUsesSingleSample) {
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.1/32"), {65001});
  MonitoringService monitoring(config);
  monitoring.process(obs(9, "10.0.0.1/32", {9, 65001}, 10));
  EXPECT_EQ(monitoring.vantage_legitimate(9, net::Prefix::must_parse("10.0.0.1/32")),
            true);
}

TEST(MonitoringTest, BatchMatchesPerObservationProcessing) {
  // The batch-vs-loop oracle for the memoized batch path: process_batch
  // must record exactly the change timeline process() does, including
  // intermediate flips inside one batch, repeated prefixes (the match
  // memo) and runs of one vantage (the view memo).
  const auto config = victim_config();
  std::vector<feeds::Observation> stream;
  // vantage 9: legit, flip to hijack, repeat (memo hit), flip back.
  stream.push_back(obs(9, "10.0.0.0/23", {9, 2, 65001}, 10));
  stream.push_back(obs(9, "10.0.0.0/23", {9, 666}, 11));
  stream.push_back(obs(9, "10.0.0.0/23", {9, 666}, 12));
  stream.push_back(obs(9, "10.0.0.0/23", {9, 2, 65001}, 13));
  // vantage switch mid-batch, sub-prefix via LPM, a withdrawal, noise.
  stream.push_back(obs(8, "10.0.0.0/23", {8, 65001}, 14));
  stream.push_back(obs(8, "10.0.1.0/24", {8, 666}, 15));
  stream.push_back(obs(8, "10.0.1.0/24", {}, 16, feeds::ObservationType::kWithdrawal));
  stream.push_back(obs(8, "203.0.113.0/24", {8, 7}, 17));
  stream.push_back(obs(9, "10.0.0.0/16", {9, 666}, 18));

  MonitoringService loop(config);
  for (const auto& o : stream) loop.process(o);
  MonitoringService batched(config);
  batched.process_batch(stream);

  ASSERT_EQ(batched.changes().size(), loop.changes().size());
  for (std::size_t i = 0; i < loop.changes().size(); ++i) {
    EXPECT_EQ(batched.changes()[i].when, loop.changes()[i].when) << i;
    EXPECT_EQ(batched.changes()[i].vantage, loop.changes()[i].vantage) << i;
    EXPECT_EQ(batched.changes()[i].owned, loop.changes()[i].owned) << i;
    EXPECT_EQ(batched.changes()[i].legitimate, loop.changes()[i].legitimate) << i;
    EXPECT_EQ(batched.changes()[i].current_origin, loop.changes()[i].current_origin)
        << i;
  }
  EXPECT_EQ(batched.fraction_legitimate(kOwned), loop.fraction_legitimate(kOwned));
  EXPECT_EQ(batched.vantages_with_data(kOwned), loop.vantages_with_data(kOwned));
}

TEST(MonitoringTest, OverlappingOwnedPrefixesFlipInEntryOrder) {
  // Nested and sibling owned prefixes, listed out of address order, and
  // one prefix listed twice: every observation re-judges each entry it
  // overlaps (covering, equal or covered), in listing order, and each
  // listing of the repeated prefix keeps its own state.
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.1.0/24"), {65002});         // 0
  config.add_owned(net::Prefix::must_parse("10.0.0.0/22"), {65001});         // 1
  config.add_owned(net::Prefix::must_parse("10.0.0.0/24"), {65001});         // 2
  config.add_owned(net::Prefix::must_parse("10.0.2.0/23"), {65003});         // 3
  config.add_owned(net::Prefix::must_parse("10.0.1.0/24"), {65002, 65005});  // 4
  MonitoringService monitoring(config);
  monitoring.process_batch(std::vector<feeds::Observation>{
      obs(9, "10.0.0.0/22", {9, 65001}, 10),  // overlaps every entry
      obs(9, "10.0.1.0/24", {9, 65002}, 11),  // entries 0, 1 and 4
      obs(9, "10.0.2.0/24", {9, 666}, 12),    // entries 1 and 3
  });
  monitoring.process(obs(8, "10.0.0.0/23", {8, 65001}, 13));  // 0, 1, 2, 4
  monitoring.process(
      obs(9, "10.0.2.0/24", {}, 14, feeds::ObservationType::kWithdrawal));

  struct Want {
    double at;
    bgp::Asn vantage;
    const char* owned;
    bool legitimate;
    bgp::Asn origin;
  };
  const std::vector<Want> want = {
      {10, 9, "10.0.1.0/24", false, 65001}, {10, 9, "10.0.0.0/22", true, 65001},
      {10, 9, "10.0.0.0/24", true, 65001},  {10, 9, "10.0.2.0/23", false, 65001},
      {10, 9, "10.0.1.0/24", false, 65001}, {11, 9, "10.0.1.0/24", true, 65002},
      {11, 9, "10.0.1.0/24", true, 65002},  {12, 9, "10.0.0.0/22", false, 65001},
      {13, 8, "10.0.1.0/24", false, 65001}, {13, 8, "10.0.0.0/22", false, 65001},
      {13, 8, "10.0.0.0/24", true, 65001},  {13, 8, "10.0.1.0/24", false, 65001},
      {14, 9, "10.0.0.0/22", true, 65001},
  };
  ASSERT_EQ(monitoring.changes().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const VantageChange& got = monitoring.changes()[i];
    EXPECT_EQ(got.when, SimTime::at_seconds(want[i].at)) << i;
    EXPECT_EQ(got.vantage, want[i].vantage) << i;
    EXPECT_EQ(got.owned.to_string(), want[i].owned) << i;
    EXPECT_EQ(got.legitimate, want[i].legitimate) << i;
    EXPECT_EQ(got.current_origin, want[i].origin) << i;
  }

  // The repeated prefix answers for its first listing, and tallies both.
  const auto repeated = net::Prefix::must_parse("10.0.1.0/24");
  EXPECT_EQ(monitoring.vantage_legitimate(8, repeated), false);
  EXPECT_EQ(monitoring.vantage_legitimate(9, repeated), true);
  EXPECT_EQ(monitoring.vantages_with_data(repeated), 4u);
  EXPECT_DOUBLE_EQ(monitoring.fraction_legitimate(repeated), 0.5);
  EXPECT_EQ(monitoring.vantages_with_data(net::Prefix::must_parse("10.0.2.0/23")), 1u);
  EXPECT_FALSE(
      monitoring.vantage_legitimate(9, net::Prefix::must_parse("10.0.2.0/24")).has_value());
}

}  // namespace
}  // namespace artemis::core
