// Property-based tests: randomized sweeps over seeds asserting the
// library's structural invariants (parameterized gtest, one seed per
// instantiation).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "artemis/mitigation.hpp"
#include "bgp/rib.hpp"
#include "mrt/mrt.hpp"
#include "mrt_expected.hpp"
#include "netbase/prefix_trie.hpp"
#include "sim/network.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace artemis {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};
};

// ------------------------------------------ prefix parse/format round-trip

net::Prefix random_prefix(Rng& rng, int min_len = 0, int max_len = 32) {
  const auto addr = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
  const int len = static_cast<int>(rng.uniform_int(min_len, max_len));
  return net::Prefix(addr, len);
}

using PrefixRoundTrip = SeededProperty;

TEST_P(PrefixRoundTrip, ParseFormatIsIdentity) {
  for (int i = 0; i < 500; ++i) {
    const auto p = random_prefix(rng);
    const auto reparsed = net::Prefix::parse(p.to_string());
    ASSERT_TRUE(reparsed) << p.to_string();
    EXPECT_EQ(*reparsed, p);
  }
}

TEST_P(PrefixRoundTrip, SplitHalvesPartitionParent) {
  for (int i = 0; i < 500; ++i) {
    const auto p = random_prefix(rng, 0, 31);
    const auto [low, high] = p.split();
    EXPECT_EQ(low.parent(), p);
    EXPECT_EQ(high.parent(), p);
    EXPECT_FALSE(low.overlaps(high));
    EXPECT_EQ(low.size_v4() + high.size_v4(), p.size_v4());
    // Any address in p lands in exactly one half.
    const auto probe =
        net::IpAddress::v4(p.address().v4_value() +
                           static_cast<std::uint32_t>(rng.uniform_u64(p.size_v4())));
    EXPECT_NE(low.contains(probe), high.contains(probe));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------- trie vs naive linear LPM

using TrieVsNaive = SeededProperty;

TEST_P(TrieVsNaive, LookupMatchesLinearScan) {
  net::PrefixTrie<int> trie;
  std::vector<std::pair<net::Prefix, int>> table;
  for (int i = 0; i < 300; ++i) {
    const auto p = random_prefix(rng, 4, 28);
    if (trie.find(p) == nullptr) {  // skip duplicates: keep models in sync
      trie.insert(p, i);
      table.emplace_back(p, i);
    }
  }
  // Random erasures keep the two structures in sync.
  for (int i = 0; i < 50 && !table.empty(); ++i) {
    const auto idx = rng.uniform_u64(table.size());
    trie.erase(table[idx].first);
    table.erase(table.begin() + static_cast<long>(idx));
  }
  for (int i = 0; i < 2000; ++i) {
    const auto addr = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    const auto got = trie.lookup(addr);
    // Naive longest-prefix match.
    const std::pair<net::Prefix, int>* best = nullptr;
    for (const auto& entry : table) {
      if (!entry.first.contains(addr)) continue;
      if (best == nullptr || entry.first.length() > best->first.length()) best = &entry;
    }
    if (best == nullptr) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->first, best->first);
      EXPECT_EQ(*got->second, best->second);
    }
  }
}

TEST_P(TrieVsNaive, VisitCoveredMatchesFilter) {
  net::PrefixTrie<int> trie;
  std::vector<net::Prefix> inserted;
  for (int i = 0; i < 200; ++i) {
    const auto p = random_prefix(rng, 8, 28);
    if (trie.insert(p, i)) inserted.push_back(p);
  }
  for (int i = 0; i < 50; ++i) {
    const auto scope = random_prefix(rng, 4, 20);
    std::vector<net::Prefix> via_trie;
    trie.visit_covered(scope,
                       [&](const net::Prefix& p, const int&) { via_trie.push_back(p); });
    std::vector<net::Prefix> via_filter;
    for (const auto& p : inserted) {
      if (scope.covers(p)) via_filter.push_back(p);
    }
    std::sort(via_trie.begin(), via_trie.end());
    std::sort(via_filter.begin(), via_filter.end());
    EXPECT_EQ(via_trie, via_filter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieVsNaive, ::testing::Values(10, 11, 12, 13, 14));

// ------------------------------------------------- MRT round-trip fuzzing

using MrtRoundTrip = SeededProperty;

bgp::UpdateMessage random_update(Rng& rng) {
  bgp::UpdateMessage u;
  u.sender = static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 20));
  const auto n_announced = rng.uniform_int(0, 5);
  const auto n_withdrawn = rng.uniform_int(n_announced == 0 ? 1 : 0, 4);
  for (int i = 0; i < n_announced; ++i) u.announced.push_back(random_prefix(rng));
  for (int i = 0; i < n_withdrawn; ++i) u.withdrawn.push_back(random_prefix(rng));
  if (!u.announced.empty()) {
    std::vector<bgp::Asn> hops;
    const auto n_hops = rng.uniform_int(1, 12);
    for (int i = 0; i < n_hops; ++i) {
      hops.push_back(static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 30)));
    }
    u.attrs.as_path = bgp::AsPath(std::move(hops));
    u.attrs.origin = static_cast<bgp::Origin>(rng.uniform_int(0, 2));
    u.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    u.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    const auto n_comm = rng.uniform_int(0, 4);
    for (int i = 0; i < n_comm; ++i) {
      u.attrs.communities.push_back(
          {static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
           static_cast<std::uint16_t>(rng.uniform_int(0, 65535))});
    }
  }
  return u;
}

TEST_P(MrtRoundTrip, UpdateRecordSurvivesEncodeDecode) {
  for (int i = 0; i < 200; ++i) {
    mrt::UpdateRecord rec;
    rec.peer_asn = static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 30));
    rec.local_asn = static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 16));
    rec.peer_ip = net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    rec.timestamp = SimTime::at_micros(rng.uniform_int(0, 4'000'000'000LL) * 1000);
    rec.update = random_update(rng);
    rec.update.sender = rec.peer_asn;

    const auto converted = mrt::convert(mrt::encode_update_record(rec));
    ASSERT_TRUE(converted.stats.clean()) << converted.stats.error;
    mrt::expect_observations(converted.obs, mrt::expected_observations(rec));
  }
}

TEST_P(MrtRoundTrip, ElemStreamConservesElemCount) {
  mrt::ByteWriter stream;
  std::size_t expected = 0;
  for (int i = 0; i < 50; ++i) {
    mrt::UpdateRecord rec;
    rec.peer_asn = 1 + static_cast<bgp::Asn>(i);
    rec.update = random_update(rng);
    expected += rec.update.announced.size() + rec.update.withdrawn.size();
    stream.bytes(mrt::encode_update_record(rec));
  }
  // One observation per announced or withdrawn prefix (a libBGPStream
  // "elem"), none lost or invented across record boundaries.
  const auto converted = mrt::convert(stream.data());
  EXPECT_EQ(converted.obs.size(), expected);
  EXPECT_TRUE(converted.stats.clean());
  EXPECT_EQ(converted.stats.records, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtRoundTrip, ::testing::Values(20, 21, 22, 23, 24));

// --------------------------------------- decision process is a strict order

using DecisionOrder = SeededProperty;

bgp::Route random_route(Rng& rng, const net::Prefix& prefix) {
  bgp::Route r;
  r.prefix = prefix;
  std::vector<bgp::Asn> hops;
  const auto n = rng.uniform_int(1, 6);
  for (int i = 0; i < n; ++i) {
    hops.push_back(static_cast<bgp::Asn>(rng.uniform_int(1, 50)));
  }
  r.attrs.as_path = bgp::AsPath(std::move(hops));
  r.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(1, 3) * 100);
  r.attrs.origin = static_cast<bgp::Origin>(rng.uniform_int(0, 2));
  r.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  r.learned_from = static_cast<bgp::Asn>(rng.uniform_int(1, 30));
  return r;
}

TEST_P(DecisionOrder, AntisymmetricAndTransitive) {
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");
  std::vector<bgp::Route> routes;
  for (int i = 0; i < 30; ++i) routes.push_back(random_route(rng, prefix));
  for (const auto& a : routes) {
    EXPECT_FALSE(bgp::better_route(a, a));
    for (const auto& b : routes) {
      EXPECT_FALSE(bgp::better_route(a, b) && bgp::better_route(b, a));
      for (const auto& c : routes) {
        if (bgp::better_route(a, b) && bgp::better_route(b, c)) {
          EXPECT_TRUE(bgp::better_route(a, c));
        }
      }
    }
  }
}

TEST_P(DecisionOrder, LocRibBestIsMaximalCandidate) {
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");
  bgp::LocRib rib;
  for (int i = 0; i < 20; ++i) {
    auto r = random_route(rng, prefix);
    r.learned_from = static_cast<bgp::Asn>(i + 1);  // distinct neighbors
    rib.announce(r);
  }
  const auto* best = rib.best(prefix);
  ASSERT_NE(best, nullptr);
  for (const auto& candidate : rib.candidates(prefix)) {
    EXPECT_FALSE(bgp::better_route(candidate, *best));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionOrder, ::testing::Values(30, 31, 32));

// --------------------------------------------- valley-free path invariant

using ValleyFree = SeededProperty;

TEST_P(ValleyFree, ConvergedPathsAreValleyFree) {
  topo::GeneratorParams params;
  params.tier1_count = 4;
  params.tier2_count = 20;
  params.stub_count = 60;
  auto topo_rng = rng.fork("topo");
  const auto graph = topo::generate_topology(params, topo_rng);

  sim::NetworkParams net_params;
  net_params.mrai = SimDuration::zero();  // converge fast; policy unchanged
  sim::Network network(graph, net_params, rng.fork("net"));

  const auto stubs = graph.ases_in_tier(topo::Tier::kStub);
  const auto origin_as = stubs[rng.uniform_u64(stubs.size())];
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");
  network.speaker(origin_as).originate(prefix);
  network.run_to_convergence();

  // Walk every AS's best path origin->AS and assert the up*-peer?-down*
  // pattern of Gao-Rexford.
  std::size_t with_route = 0;
  for (const auto asn : graph.all_ases()) {
    const auto* route = network.speaker(asn).best_route(prefix);
    if (route == nullptr) continue;
    ++with_route;
    if (asn == origin_as) continue;  // self-originated: no inter-AS hops
    // Full AS-level path, most recent first, then reversed to origin-first.
    std::vector<bgp::Asn> path{asn};
    for (const auto hop : route->attrs.as_path.hops()) path.push_back(hop);
    std::reverse(path.begin(), path.end());
    ASSERT_EQ(path.front(), origin_as);
    int phase = 0;  // 0 = climbing, 1 = after peer, 2 = descending
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto rel = graph.relationship(path[i], path[i + 1]);
      ASSERT_TRUE(rel.has_value()) << "non-adjacent hop in path";
      switch (*rel) {
        case topo::Relationship::kProvider:  // climbing up
          EXPECT_EQ(phase, 0) << "uphill after peak";
          break;
        case topo::Relationship::kPeer:
          EXPECT_EQ(phase, 0) << "second peak";
          phase = 1;
          break;
        case topo::Relationship::kCustomer:  // descending
          phase = 2;
          break;
      }
    }
  }
  // Policy may legitimately hide the route from some ASes, but the vast
  // majority must reach it (everyone has a provider chain to tier-1).
  EXPECT_GT(with_route, graph.as_count() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValleyFree, ::testing::Values(40, 41, 42, 43));

// ------------------------------------------------ mitigation plan algebra

using PlanProperty = SeededProperty;

TEST_P(PlanProperty, AnnouncementsStayInOwnedSpaceAndBeatHijack) {
  for (int i = 0; i < 300; ++i) {
    const auto owned = random_prefix(rng, 8, 26);
    // Observed overlaps owned: either equal, sub, or super prefix.
    net::Prefix observed = owned;
    const auto kind = rng.uniform_int(0, 2);
    if (kind == 1 && owned.length() < 30) {
      observed = net::Prefix(
          owned.address().with_bit(owned.length(), rng.chance(0.5)), owned.length() + 1);
    } else if (kind == 2 && owned.length() > 1) {
      observed = net::Prefix(owned.address(), owned.length() - 1);
    }
    core::MitigationPolicy policy;
    policy.deaggregation_floor = static_cast<int>(rng.uniform_int(20, 28));
    policy.reannounce_exact = rng.chance(0.5);
    const auto plan = core::plan_mitigation(owned, observed, policy);

    const auto scope = owned.covers(observed) ? observed : owned;
    for (const auto& announcement : plan.announcements) {
      // Never announce space we do not own.
      EXPECT_TRUE(owned.covers(announcement)) << owned.to_string() << " vs "
                                              << announcement.to_string();
      // Never exceed the filtering floor (except the exact re-announce,
      // which is by definition the owned prefix itself).
      if (announcement != owned) {
        EXPECT_LE(announcement.length(), policy.deaggregation_floor);
        // De-aggregated prefixes must actually beat the hijack via LPM.
        EXPECT_GT(announcement.length(), scope.length());
      }
    }
    if (plan.deaggregation_possible) {
      // The de-aggregated set covers the whole contested scope.
      std::uint64_t covered = 0;
      for (const auto& announcement : plan.announcements) {
        if (announcement != owned || !policy.reannounce_exact) {
          covered += announcement.size_v4();
        }
      }
      if (policy.reannounce_exact && owned.length() > scope.length()) {
        // owned is more specific than scope: it was counted above; adjust.
        covered -= 0;  // no-op for clarity
      }
      EXPECT_GE(covered, scope.size_v4());
    } else {
      // Infeasible: only the exact re-announce may be present.
      for (const auto& announcement : plan.announcements) {
        EXPECT_EQ(announcement, owned);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperty, ::testing::Values(50, 51, 52, 53, 54));

}  // namespace
}  // namespace artemis
