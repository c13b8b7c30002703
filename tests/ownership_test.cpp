// The multi-tenant ownership API: frozen tables, tenant-scoped refs,
// schema v2 configs, snapshot swaps, and tenant-scoped alerting.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>

#include "artemis/detection.hpp"
#include "artemis/ownership.hpp"
#include "util/rng.hpp"

namespace artemis::core {
namespace {

/// Two tenants with adjacent space: acme owns 10.0.0.0/23, globex owns
/// 10.1.0.0/24 and 2001:db8::/32.
Config two_tenant_config() {
  Config config;
  const TenantId acme = config.add_tenant("acme");
  const TenantId globex = config.add_tenant("globex");
  config.add_owned(acme, net::Prefix::must_parse("10.0.0.0/23"), {65001});
  config.add_owned(globex, net::Prefix::must_parse("10.1.0.0/24"), {65002});
  config.add_owned(globex, net::Prefix::must_parse("2001:db8::/32"), {65003});
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
  config.add_owned(provider, net::Prefix::must_parse("172.16.0.0/16"), {64500});
  config.add_owned(customer, net::Prefix::must_parse("172.16.5.0/24"), {64501});
  const auto table = config.build_table();

  const auto inside = table->match(net::Prefix::must_parse("172.16.5.0/25"));
  ASSERT_TRUE(inside);
  EXPECT_EQ(inside.tenant, customer);
  const auto outside = table->match(net::Prefix::must_parse("172.16.9.0/24"));
  ASSERT_TRUE(outside);
  EXPECT_EQ(outside.tenant, provider);
}

// The overlap rule (README "Configuration"), one case per clause.

TEST(OwnershipTableTest, MostSpecificCoveringEntryWins) {
  // A covering entry beats entries the observed prefix covers; among
  // covering entries the most specific wins, whatever the listing order.
  Config config;
  const TenantId a = config.add_tenant("a");
  const TenantId b = config.add_tenant("b");
  const TenantId c = config.add_tenant("c");
  config.add_owned(a, net::Prefix::must_parse("10.0.0.0/20"), {1});
  config.add_owned(b, net::Prefix::must_parse("10.0.0.0/16"), {2});
  config.add_owned(c, net::Prefix::must_parse("10.0.1.0/24"), {3});
  const auto table = config.build_table();
  EXPECT_EQ(table->match(net::Prefix::must_parse("10.0.0.0/22")).tenant, a);
  EXPECT_EQ(table->match(net::Prefix::must_parse("10.0.1.128/25")).tenant, c);
  EXPECT_EQ(table->match(net::Prefix::must_parse("10.0.32.0/20")).tenant, b);
  EXPECT_EQ(table->match(net::Prefix::must_parse("10.0.0.0/18")).tenant, b);
}

TEST(OwnershipTableTest, SuperPrefixResolvesToFirstCoveredInAddressOrder) {
  // Nothing covers 10.0.0.0/22, so the first entry it covers wins, in
  // (address, length) order: listing order does not break the tie.
  Config config;
  const TenantId a = config.add_tenant("a");
  const TenantId b = config.add_tenant("b");
  config.add_owned(a, net::Prefix::must_parse("10.0.1.0/24"), {1});
  config.add_owned(b, net::Prefix::must_parse("10.0.0.0/24"), {2});
  config.add_owned(a, net::Prefix::must_parse("10.0.4.0/24"), {1});
  config.add_owned(a, net::Prefix::must_parse("10.0.4.0/23"), {1});
  const auto table = config.build_table();
  const auto hit = table->match(net::Prefix::must_parse("10.0.0.0/22"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.tenant, b);
  EXPECT_EQ(table->entry(hit).prefix.to_string(), "10.0.0.0/24");
  // Equal addresses: the shorter prefix comes first.
  EXPECT_EQ(table->entry(table->match(net::Prefix::must_parse("10.0.4.0/22"))).prefix
                .to_string(),
            "10.0.4.0/23");
}

TEST(OwnershipTableTest, RepeatedPrefixResolvesToLastListing) {
  Config config;
  const TenantId a = config.add_tenant("a");
  const TenantId b = config.add_tenant("b");
  config.add_owned(a, net::Prefix::must_parse("10.0.0.0/24"), {1});
  config.add_owned(a, net::Prefix::must_parse("2001:db8::/32"), {1});
  config.add_owned(b, net::Prefix::must_parse("10.0.0.0/24"), {2});
  const auto table = config.build_table();
  for (const char* query : {"10.0.0.0/24", "10.0.0.128/25", "10.0.0.0/16"}) {
    const auto hit = table->match(net::Prefix::must_parse(query));
    ASSERT_TRUE(hit) << query;
    EXPECT_EQ(hit.entry, 2u) << query;
    EXPECT_EQ(hit.tenant, b) << query;
    EXPECT_TRUE(table->entry(hit).legitimate_origin(2)) << query;
  }
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
  const auto round = Config::from_json_text(config.to_json().dump());
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
  EXPECT_THROW(config.add_owned(7, net::Prefix::must_parse("10.0.0.0/8"), {1}),
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
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
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
  before.add_owned(acme, net::Prefix::must_parse("10.0.0.0/23"), {65001});

  DetectionService detector(before);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);

  Config after;
  after.add_tenant("acme");
  const TenantId globex_after = after.add_tenant("globex");
  after.add_owned(globex_after, net::Prefix::must_parse("10.0.0.0/23"), {65001});
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

// ------------------------------------------------------- generated oracle

struct OracleEntry {
  net::Prefix prefix;
  TenantId tenant = 0;
};

/// The overlap rule by linear scan: the most-specific entry covering `p`,
/// else the first entry `p` covers in (address, length) order; among the
/// listings of one prefix, the last.
std::optional<std::size_t> reference_match(const std::vector<OracleEntry>& entries,
                                           const net::Prefix& p) {
  std::optional<std::size_t> covering;
  std::optional<std::size_t> covered;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const net::Prefix& e = entries[i].prefix;
    if (e.covers(p)) {
      if (!covering || e.length() >= entries[*covering].prefix.length()) covering = i;
    } else if (p.covers(e)) {
      // Prefix orders by (family, address, length).
      if (!covered || e <= entries[*covered].prefix) covered = i;
    }
  }
  return covering ? covering : covered;
}

/// A prefix inside one of 16 clusters per family (a /12 in its own v4 /8,
/// a /28 in its own v6 /16), so entries nest, neighbour and repeat.
net::Prefix random_prefix(Rng& rng, bool v4, int min_len, int max_len) {
  const int len = static_cast<int>(rng.uniform_int(min_len, max_len));
  const std::uint64_t cluster = rng.uniform_u64(16);
  if (v4) {
    const auto high = static_cast<std::uint32_t>(16 + 8 * cluster) << 24;
    return net::Prefix(net::IpAddress::v4(high | (rng.next_u64() & 0xFFFFFu)), len);
  }
  const std::uint64_t hi = ((0x2000 + cluster) << 48) | (rng.next_u64() & 0xFFFFFFFFFull);
  return net::Prefix(net::IpAddress::v6(hi, rng.next_u64()), len);
}

/// A prefix anywhere in its family's space: mostly a miss.
net::Prefix anywhere(Rng& rng, bool v4) {
  if (v4) {
    return net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                       static_cast<int>(rng.uniform_int(12, 32)));
  }
  return net::Prefix(net::IpAddress::v6(rng.next_u64(), rng.next_u64()),
                     static_cast<int>(rng.uniform_int(24, 64)));
}

/// `p` lengthened by 1..`max_step` bits of random address (a sub-prefix)
/// or, with `up`, shortened by as many (a super-prefix).
net::Prefix step(Rng& rng, const net::Prefix& p, bool up, int max_step) {
  const int delta = static_cast<int>(rng.uniform_int(1, max_step));
  if (up) return net::Prefix(p.address(), std::max(0, p.length() - delta));
  net::IpAddress address = p.address();
  for (int i = p.length(); i < p.max_length(); ++i) {
    address = address.with_bit(i, rng.chance(0.5));
  }
  return net::Prefix(address, std::min(p.max_length(), p.length() + delta));
}

/// ~`n` dual-stack entries over 8 tenants: fresh prefixes, nested and
/// sibling ones derived from earlier entries, and repeats of an earlier
/// prefix under another tenant.
std::vector<OracleEntry> generate_entries(Rng& rng, std::size_t n) {
  std::vector<OracleEntry> entries;
  while (entries.size() < n) {
    const auto tenant = static_cast<TenantId>(rng.uniform_u64(8));
    const std::uint64_t kind = entries.empty() ? 3 : rng.uniform_u64(10);
    if (kind == 0) {  // repeat
      entries.push_back({entries[rng.uniform_u64(entries.size())].prefix, tenant});
    } else if (kind <= 2) {  // nested: a child or parent of an earlier entry
      const net::Prefix& base = entries[rng.uniform_u64(entries.size())].prefix;
      entries.push_back({step(rng, base, kind == 2, 6), tenant});
    } else {
      const bool v4 = rng.chance(0.5);
      entries.push_back({v4 ? random_prefix(rng, true, 18, 28) : random_prefix(rng, false, 36, 72),
                         tenant});
    }
  }
  return entries;
}

std::shared_ptr<const OwnershipTable> build(const std::vector<OracleEntry>& entries) {
  Config config;
  for (int t = 0; t < 8; ++t) config.add_tenant("t" + std::to_string(t));
  for (const auto& e : entries) config.add_owned(e.tenant, e.prefix, {64500 + e.tenant});
  return config.build_table();
}

TEST(OwnershipOracleTest, GeneratedConfigsMatchLinearScan) {
  Rng rng(20250);
  const std::vector<OracleEntry> entries = generate_entries(rng, 20000);
  const auto table = build(entries);

  std::vector<net::Prefix> queries;
  for (int i = 0; i < 400; ++i) {
    const net::Prefix& p = entries[rng.uniform_u64(entries.size())].prefix;
    queries.push_back(p);                        // exact
    queries.push_back(step(rng, p, false, 8));   // sub-prefix
    queries.push_back(step(rng, p, true, 8));    // super-prefix
    const bool v4 = rng.chance(0.5);
    // Short prefixes over the clusters (super-prefixes), then misses.
    queries.push_back(v4 ? random_prefix(rng, true, 8, 20) : random_prefix(rng, false, 16, 36));
    queries.push_back(anywhere(rng, v4));
  }
  queries.push_back(net::Prefix::must_parse("192.0.2.0/24"));  // misses
  queries.push_back(net::Prefix::must_parse("2c0f::/16"));

  // Shuffled, with each prefix's listings kept in their relative order:
  // the same (prefix, tenant) must win.
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order.data(), order.size());
  std::map<net::Prefix, std::vector<std::size_t>> listings;
  for (std::size_t i = 0; i < entries.size(); ++i) listings[entries[i].prefix].push_back(i);
  std::map<net::Prefix, std::size_t> taken;
  for (std::size_t& slot : order) {
    const net::Prefix p = entries[slot].prefix;
    slot = listings[p][taken[p]++];
  }
  std::vector<OracleEntry> shuffled;
  for (const std::size_t i : order) shuffled.push_back(entries[i]);
  const auto shuffled_table = build(shuffled);

  std::size_t repeats = 0;
  for (const auto& [prefix, where] : listings) repeats += where.size() > 1 ? 1 : 0;
  EXPECT_GT(repeats, 1000u);
  std::size_t hits = 0;
  std::size_t super_only = 0;
  for (const net::Prefix& q : queries) {
    const auto want = reference_match(entries, q);
    const OwnershipRef got = table->match(q);
    const OwnershipRef got_shuffled = shuffled_table->match(q);
    ASSERT_EQ(got.valid(), want.has_value()) << q.to_string();
    ASSERT_EQ(got_shuffled.valid(), want.has_value()) << q.to_string();
    if (!want) continue;
    ++hits;
    if (!entries[*want].prefix.covers(q)) ++super_only;
    EXPECT_EQ(got.entry, *want) << q.to_string();
    EXPECT_EQ(got.tenant, entries[*want].tenant) << q.to_string();
    EXPECT_EQ(shuffled_table->entry(got_shuffled).prefix, entries[*want].prefix)
        << q.to_string();
    EXPECT_EQ(got_shuffled.tenant, entries[*want].tenant) << q.to_string();
  }
  // Every kind of answer was exercised.
  EXPECT_GT(hits, queries.size() / 2);
  EXPECT_GT(super_only, 100u);
  EXPECT_GT(queries.size() - hits, 100u);
}

}  // namespace
}  // namespace artemis::core
