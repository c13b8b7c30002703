// E7 — Systems microbenchmarks (google-benchmark): throughput of the
// detection hot path and its substrates. Not a paper table; establishes
// that the detection service sustains far more than a full Internet feed
// (~10^2-10^3 updates/s at the collectors ARTEMIS subscribes to).
#include <benchmark/benchmark.h>

#include "artemis/detection.hpp"
#include "bgp/rib.hpp"
#include "json/json.hpp"
#include "mrt/mrt.hpp"
#include "netbase/prefix_trie.hpp"
#include "util/rng.hpp"

using namespace artemis;

namespace {

net::Prefix random_prefix(Rng& rng, int min_len = 8, int max_len = 24) {
  return net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                     static_cast<int>(rng.uniform_int(min_len, max_len)));
}

/// Global-unicast v6 addresses with the real table's shape: a handful of
/// dense RIR blocks up top, well-spread allocation bits below, /32-/48
/// prefix lengths (where actual announcements cluster).
net::IpAddress random_v6_address(Rng& rng) {
  static constexpr std::uint64_t kRirBlocks[] = {0x2001, 0x2400, 0x2600, 0x2620,
                                                 0x2800, 0x2a00, 0x2c00, 0x2a10};
  const std::uint64_t block = kRirBlocks[rng.next_u64() & 7];
  const std::uint64_t hi = (block << 48) | (rng.next_u64() & 0xFFFFFFFFFFFFull);
  return net::IpAddress::from_words(net::IpFamily::kIpv6, hi, rng.next_u64());
}

net::Prefix random_v6_prefix(Rng& rng) {
  return net::Prefix(random_v6_address(rng), static_cast<int>(rng.uniform_int(32, 48)));
}

void BM_PrefixParse(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::string> texts;
  for (int i = 0; i < 1024; ++i) texts.push_back(random_prefix(rng).to_string());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Prefix::parse(texts[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixParse);

void BM_TrieInsert(benchmark::State& state) {
  Rng rng(2);
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 1 << 16; ++i) prefixes.push_back(random_prefix(rng));
  std::size_t i = 0;
  net::PrefixTrie<int> trie;
  for (auto _ : state) {
    trie.insert(prefixes[i++ & 0xFFFF], 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieInsert);

void BM_TrieLpmLookup(benchmark::State& state) {
  Rng rng(3);
  net::PrefixTrie<int> trie;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    trie.insert(random_prefix(rng), static_cast<int>(i));
  }
  std::vector<net::IpAddress> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLpmLookup)->Arg(1000)->Arg(100000)->Arg(900000);

/// v6 LPM with the stride cascade (the default). Tracked alongside the
/// v4 trajectory; the PathOnly variant below is the pre-cascade baseline
/// the cascade must beat at >= 100k routes (ISSUE 5 acceptance).
void trie_lpm_lookup_v6(benchmark::State& state, bool stride_tables) {
  Rng rng(11);
  net::PrefixTrie<int> trie;
  trie.set_stride_tables_enabled(stride_tables);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    trie.insert(random_v6_prefix(rng), static_cast<int>(i));
  }
  std::vector<net::IpAddress> probes;
  for (int i = 0; i < 1024; ++i) probes.push_back(random_v6_address(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TrieLpmLookupV6(benchmark::State& state) {
  trie_lpm_lookup_v6(state, /*stride_tables=*/true);
}
BENCHMARK(BM_TrieLpmLookupV6)->Arg(1000)->Arg(100000)->Arg(900000);

void BM_TrieLpmLookupV6PathOnly(benchmark::State& state) {
  trie_lpm_lookup_v6(state, /*stride_tables=*/false);
}
BENCHMARK(BM_TrieLpmLookupV6PathOnly)->Arg(1000)->Arg(100000)->Arg(900000);

/// visit_covered ("every announced more-specific of this owned block")
/// over a v6 table — the sub-prefix hijack sweep detection runs per owned
/// prefix, and the subtree-walk shape is nothing like single-probe LPM:
/// it descends to the covering node then enumerates a whole subtree.
/// Probes are /32s from the same RIR blocks the table draws from, so
/// subtree sizes range from empty to hundreds of entries.
void BM_TrieVisitCoveredV6(benchmark::State& state) {
  Rng rng(13);
  net::PrefixTrie<int> trie;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    trie.insert(random_v6_prefix(rng), static_cast<int>(i));
  }
  std::vector<net::Prefix> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(net::Prefix(random_v6_address(rng), 32));
  }
  std::size_t i = 0;
  std::uint64_t visited = 0;
  for (auto _ : state) {
    trie.visit_covered(probes[i++ & 1023],
                       [&](const net::Prefix&, const int&) { ++visited; });
  }
  benchmark::DoNotOptimize(visited);
  state.SetItemsProcessed(state.iterations());
  state.counters["visited_per_call"] =
      benchmark::Counter(static_cast<double>(visited) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TrieVisitCoveredV6)->Arg(1000)->Arg(100000)->Arg(900000);

bgp::UpdateMessage sample_update(Rng& rng) {
  bgp::UpdateMessage u;
  u.sender = 64500;
  u.attrs.as_path = bgp::AsPath({64500, 3356, 1299, 65001});
  u.announced = {random_prefix(rng), random_prefix(rng)};
  u.withdrawn = {random_prefix(rng)};
  return u;
}

void BM_MrtEncodeUpdate(benchmark::State& state) {
  Rng rng(4);
  mrt::UpdateRecord rec;
  rec.peer_asn = 64500;
  rec.update = sample_update(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrt::encode_update_record(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrtEncodeUpdate);

/// A full-internet-scale multi-tenant config: `prefixes` owned prefixes
/// spread round-robin across `tenants` tenants (tenants=1 uses the v1
/// implicit-default-tenant path, the single-operator baseline).
core::Config ownership_config(std::size_t prefixes, std::size_t tenants) {
  Rng rng(11);
  core::Config config;
  std::vector<core::TenantId> ids;
  if (tenants > 1) {
    for (std::size_t t = 0; t < tenants; ++t) {
      ids.push_back(config.add_tenant("as" + std::to_string(64496 + t)));
    }
  }
  for (std::size_t i = 0; i < prefixes; ++i) {
    core::OwnedPrefix owned;
    owned.prefix = random_prefix(rng);
    owned.legitimate_origins.insert(
        static_cast<bgp::Asn>(64496 + (i % std::max<std::size_t>(tenants, 1))));
    if (tenants > 1) {
      config.add_owned(ids[i % tenants], std::move(owned));
    } else {
      config.add_owned(std::move(owned));
    }
  }
  return config;
}

void BM_OwnershipColdLoad(benchmark::State& state) {
  // BENCH_5 (ROADMAP): time-to-first-alert after loading a
  // full-internet-scale config — build the immutable OwnershipTable
  // snapshot from `prefixes` owned prefixes across `tenants` tenants,
  // stand detection up on it, and classify a known hijack. The config
  // object itself is built outside the loop: the measured cold path is
  // snapshot construction + first classification, which is what a
  // process restart or an incremental reload pays.
  const auto prefixes = static_cast<std::size_t>(state.range(0));
  const auto tenants = static_cast<std::size_t>(state.range(1));
  core::Config config = ownership_config(prefixes, tenants);
  core::OwnedPrefix victim;
  victim.prefix = net::Prefix::must_parse("10.99.0.0/23");
  victim.legitimate_origins.insert(65001);
  config.add_owned(std::move(victim));
  feeds::Observation hijack;
  hijack.type = feeds::ObservationType::kAnnouncement;
  hijack.source = "bench";
  hijack.vantage = 9;
  hijack.prefix = net::Prefix::must_parse("10.99.0.0/23");
  hijack.attrs.as_path = bgp::AsPath({9, 3356, 666});
  for (auto _ : state) {
    core::DetectionService detector(config.build_table());
    detector.process(hijack);
    if (detector.alerts().empty()) state.SkipWithError("no first alert");
    benchmark::DoNotOptimize(detector.alerts().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(prefixes));
}
// The acceptance-floor point (>=1M prefixes, >=1k tenants) plus a
// smaller point for trend reading.
BENCHMARK(BM_OwnershipColdLoad)
    ->Args({100000, 1000})
    ->Args({1 << 20, 1000})
    ->ArgNames({"prefixes", "tenants"})
    ->Unit(benchmark::kMillisecond);

void BM_OwnershipLookup(benchmark::State& state) {
  // The steady-state half of the acceptance bar: a multi-tenant match
  // must stay within 2x of the single-tenant Config::match cost at equal
  // prefix counts (tenants=1 IS that baseline — same table type, v1
  // construction path). Miss-heavy mix like BM_TrieLpmLookup.
  const auto prefixes = static_cast<std::size_t>(state.range(0));
  const auto tenants = static_cast<std::size_t>(state.range(1));
  const auto table = ownership_config(prefixes, tenants).build_table();
  Rng rng(12);
  std::vector<net::Prefix> queries;
  for (int i = 0; i < 4096; ++i) queries.push_back(random_prefix(rng, 16, 28));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->match(queries[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OwnershipLookup)
    ->Args({900000, 1})
    ->Args({900000, 1000})
    ->ArgNames({"prefixes", "tenants"});

void BM_JsonParseConfig(benchmark::State& state) {
  const std::string text = R"({
    "prefixes": [
      {"prefix": "10.0.0.0/23", "origins": [65001], "neighbors": [174, 3356]},
      {"prefix": "192.0.2.0/24", "origins": [65001, 65002]}
    ],
    "mitigation": {"deaggregation_floor": 24, "reannounce_exact": true}
  })";
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Config::from_json_text(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonParseConfig);

void BM_BetterRoute(benchmark::State& state) {
  bgp::Route a;
  a.prefix = net::Prefix::must_parse("10.0.0.0/23");
  a.attrs.as_path = bgp::AsPath({1, 2, 3});
  a.attrs.local_pref = 200;
  bgp::Route b = a;
  b.attrs.as_path = bgp::AsPath({4, 5, 6, 7});
  b.learned_from = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::better_route(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BetterRoute);

}  // namespace

BENCHMARK_MAIN();
