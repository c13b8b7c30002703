// The multi-tenant ownership API: frozen tables, tenant-scoped refs,
// schema v2 configs, snapshot swaps, and tenant-scoped alerting.
#include <gtest/gtest.h>

#include "artemis/detection.hpp"
#include "artemis/ownership.hpp"

namespace artemis::core {
namespace {

OwnedPrefix make_owned(std::string_view prefix, bgp::Asn origin) {
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse(prefix);
  owned.legitimate_origins.insert(origin);
  return owned;
}

/// Two tenants with adjacent space: acme owns 10.0.0.0/23, globex owns
/// 10.1.0.0/24 and 2001:db8::/32.
Config two_tenant_config() {
  Config config;
  const TenantId acme = config.add_tenant("acme");
  const TenantId globex = config.add_tenant("globex");
  config.add_owned(acme, make_owned("10.0.0.0/23", 65001));
  config.add_owned(globex, make_owned("10.1.0.0/24", 65002));
  config.add_owned(globex, make_owned("2001:db8::/32", 65003));
  return config;
}

feeds::Observation make_obs(std::string_view prefix, std::vector<bgp::Asn> path,
                            std::string source = "ris-live", bgp::Asn vantage = 9,
                            double at_seconds = 100.0) {
  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.source = std::move(source);
  obs.vantage = vantage;
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath(std::move(path));
  obs.event_time = SimTime::at_seconds(at_seconds - 5);
  obs.delivered_at = SimTime::at_seconds(at_seconds);
  return obs;
}

TEST(OwnershipTableTest, MatchCarriesOwningTenant) {
  const auto table = two_tenant_config().build_table();
  const auto acme_hit = table->match(net::Prefix::must_parse("10.0.1.0/24"));
  ASSERT_TRUE(acme_hit);
  EXPECT_EQ(acme_hit.tenant, 0u);
  EXPECT_EQ(table->entry(acme_hit).prefix.to_string(), "10.0.0.0/23");

  const auto globex_hit = table->match(net::Prefix::must_parse("10.1.0.0/24"));
  ASSERT_TRUE(globex_hit);
  EXPECT_EQ(globex_hit.tenant, 1u);

  const auto v6_hit = table->match(net::Prefix::must_parse("2001:db8:1::/48"));
  ASSERT_TRUE(v6_hit);
  EXPECT_EQ(v6_hit.tenant, 1u);

  EXPECT_FALSE(table->match(net::Prefix::must_parse("192.0.2.0/24")));
}

TEST(OwnershipTableTest, CrossTenantMostSpecificWins) {
  // Provider-owned /16 with a customer-delegated /24 carved out: the /24
  // observation resolves to the customer tenant, the rest to the provider.
  Config config;
  const TenantId provider = config.add_tenant("provider");
  const TenantId customer = config.add_tenant("customer");
  config.add_owned(provider, make_owned("172.16.0.0/16", 64500));
  config.add_owned(customer, make_owned("172.16.5.0/24", 64501));
  const auto table = config.build_table();

  const auto inside = table->match(net::Prefix::must_parse("172.16.5.0/25"));
  ASSERT_TRUE(inside);
  EXPECT_EQ(inside.tenant, customer);
  const auto outside = table->match(net::Prefix::must_parse("172.16.9.0/24"));
  ASSERT_TRUE(outside);
  EXPECT_EQ(outside.tenant, provider);
}

TEST(OwnershipTableTest, PolicyFallsBackForUnknownTenant) {
  Config config;
  MitigationPolicy strict;
  strict.auto_mitigate = false;
  strict.deaggregation_floor = 20;
  config.add_tenant("acme", strict);
  const auto table = config.build_table();

  EXPECT_FALSE(table->policy(0).auto_mitigate);
  EXPECT_EQ(table->policy(0).deaggregation_floor, 20);
  // A stale id (tenant removed by a reload) degrades to defaults.
  EXPECT_TRUE(table->policy(999).auto_mitigate);
  EXPECT_EQ(table->tenant(999), nullptr);
  EXPECT_FALSE(table->any_auto_mitigate());
}

TEST(OwnershipTableTest, AnyAutoMitigateSpansTenants) {
  Config config;
  MitigationPolicy off;
  off.auto_mitigate = false;
  config.add_tenant("alert-only", off);
  config.add_tenant("auto");
  EXPECT_TRUE(config.build_table()->any_auto_mitigate());
}

TEST(OwnershipTableTest, VersionsAreDistinct) {
  const Config config = two_tenant_config();
  const auto a = config.build_table();
  const auto b = config.build_table();
  EXPECT_NE(a->version(), b->version());
  EXPECT_NE(a->version(), 0u);
}

TEST(OwnershipTableTest, EmptyConfigStillResolvesDefaultTenant) {
  const auto table = Config{}.build_table();
  EXPECT_TRUE(table->empty());
  ASSERT_EQ(table->tenants().size(), 1u);
  EXPECT_EQ(table->tenants()[0].name, "default");
  EXPECT_TRUE(table->policy(kDefaultTenantId).auto_mitigate);
}

TEST(ConfigV2Test, ParsesTenantsWithPerTenantPolicy) {
  const auto config = Config::from_json_text(R"({
    "schema_version": 2,
    "tenants": [
      {"name": "acme",
       "prefixes": [{"prefix": "10.0.0.0/23", "origins": [65001]}],
       "mitigation": {"auto_mitigate": false}},
      {"name": "globex",
       "prefixes": [{"prefix": "10.1.0.0/24", "origins": [65002]}]}
    ]
  })");
  ASSERT_EQ(config.tenants().size(), 2u);
  EXPECT_EQ(config.tenants()[0].name, "acme");
  EXPECT_FALSE(config.tenants()[0].mitigation.auto_mitigate);
  EXPECT_TRUE(config.tenants()[1].mitigation.auto_mitigate);
  ASSERT_EQ(config.owned().size(), 2u);
  EXPECT_EQ(config.owned()[0].tenant, 0u);
  EXPECT_EQ(config.owned()[1].tenant, 1u);
}

TEST(ConfigV2Test, TenantsArrayImpliesVersionTwo) {
  const auto config = Config::from_json_text(
      R"({"tenants":[{"name":"a","prefixes":[{"prefix":"10.0.0.0/8","origins":[1]}]}]})");
  EXPECT_EQ(config.tenants().size(), 1u);
  EXPECT_EQ(config.tenants()[0].name, "a");
}

TEST(ConfigV2Test, RejectsSchemaMismatches) {
  // v2 declared but no tenants array.
  EXPECT_THROW(Config::from_json_text(
                   R"({"schema_version":2,"prefixes":[]})"),
               std::invalid_argument);
  // tenants array with a v1 version stamp.
  EXPECT_THROW(Config::from_json_text(
                   R"({"schema_version":1,"tenants":[]})"),
               std::invalid_argument);
  // Duplicate tenant names.
  EXPECT_THROW(
      Config::from_json_text(
          R"({"tenants":[{"name":"a","prefixes":[]},{"name":"a","prefixes":[]}]})"),
      std::invalid_argument);
  // Empty tenant name.
  EXPECT_THROW(
      Config::from_json_text(R"({"tenants":[{"name":"","prefixes":[]}]})"),
      std::invalid_argument);
}

TEST(ConfigV2Test, RoundTripsThroughJson) {
  const Config config = two_tenant_config();
  const auto round = Config::from_json(config.to_json());
  ASSERT_EQ(round.tenants().size(), 2u);
  EXPECT_EQ(round.tenants()[1].name, "globex");
  ASSERT_EQ(round.owned().size(), config.owned().size());
  for (std::size_t i = 0; i < round.owned().size(); ++i) {
    EXPECT_EQ(round.owned()[i].prefix, config.owned()[i].prefix);
    EXPECT_EQ(round.owned()[i].tenant, config.owned()[i].tenant);
  }
  EXPECT_EQ(round.to_json().dump(), config.to_json().dump());
}

TEST(ConfigV2Test, V1ConfigsKeepTheirByteShape) {
  // A single-operator config must serialize in the v1 shape regardless of
  // the multi-tenant machinery underneath (golden-fixture compatibility).
  const auto config = Config::from_json_text(
      R"({"prefixes":[{"prefix":"10.0.0.0/23","origins":[65001]}]})");
  const auto text = config.to_json().dump();
  EXPECT_EQ(text.find("tenants"), std::string::npos);
  EXPECT_EQ(text.find("schema_version"), std::string::npos);
  EXPECT_NE(text.find("\"prefixes\""), std::string::npos);
  ASSERT_EQ(config.tenants().size(), 1u);
  EXPECT_EQ(config.tenants()[0].name, "default");
}

TEST(ConfigV2Test, AddOwnedRejectsUnknownTenant) {
  Config config;
  config.add_tenant("acme");
  EXPECT_THROW(config.add_owned(7, make_owned("10.0.0.0/8", 1)),
               std::invalid_argument);
}

TEST(TenantAlertTest, AlertsCarryOwningTenant) {
  DetectionService detector(two_tenant_config());
  detector.process(make_obs("10.0.0.0/23", {9, 666}));   // acme's space
  detector.process(make_obs("10.1.0.0/24", {9, 666}));   // globex's space
  ASSERT_EQ(detector.alerts().size(), 2u);
  EXPECT_EQ(detector.alerts()[0].tenant, 0u);
  EXPECT_EQ(detector.alerts()[0].tenant_name, "acme");
  EXPECT_EQ(detector.alerts()[1].tenant, 1u);
  EXPECT_EQ(detector.alerts()[1].tenant_name, "globex");
  // Tenant-scoped display forms.
  EXPECT_NE(detector.alerts()[1].to_string().find("tenant=globex"),
            std::string::npos);
  EXPECT_NE(detector.alerts()[1].dedup_key().find("|t1"), std::string::npos);
}

TEST(TenantAlertTest, DefaultTenantKeepsV1AlertFormat) {
  Config config;
  config.add_owned(make_owned("10.0.0.0/23", 65001));
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);
  const auto& alert = detector.alerts()[0];
  EXPECT_EQ(alert.tenant, kDefaultTenantId);
  EXPECT_EQ(alert.to_string().find("tenant="), std::string::npos);
  EXPECT_EQ(alert.dedup_key().find("|t"), std::string::npos);
}

TEST(TenantAlertTest, ReloadMovingPrefixBetweenTenantsRaisesFreshAlert) {
  // The dedup key is tenant-scoped: when a reload reassigns a prefix, the
  // new owner's first alert must not be swallowed by the old owner's
  // dedup record.
  Config before;
  const TenantId acme = before.add_tenant("acme");
  before.add_tenant("globex");
  before.add_owned(acme, make_owned("10.0.0.0/23", 65001));

  DetectionService detector(before);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);

  Config after;
  after.add_tenant("acme");
  const TenantId globex_after = after.add_tenant("globex");
  after.add_owned(globex_after, make_owned("10.0.0.0/23", 65001));
  detector.set_ownership(after.build_table());

  detector.process(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 9, 200.0));
  ASSERT_EQ(detector.alerts().size(), 2u);
  EXPECT_EQ(detector.alerts()[0].tenant_name, "acme");
  EXPECT_EQ(detector.alerts()[1].tenant_name, "globex");
  // Same prefix+offender under the SAME tenant would have deduped; the
  // old record is still there and still counts its own observations.
  EXPECT_EQ(detector.observation_count(detector.alerts()[0].key()), 1u);
  EXPECT_EQ(detector.observation_count(detector.alerts()[1].key()), 1u);
}

TEST(TenantAlertTest, ReloadPreservesDedupWithinUnchangedTenant) {
  const Config config = two_tenant_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);

  // Same logical config, new snapshot: the repeat observation dedups.
  detector.set_ownership(two_tenant_config().build_table());
  detector.process(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 9, 200.0));
  EXPECT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.observation_count(detector.alerts()[0].key()), 2u);
}

}  // namespace
}  // namespace artemis::core
