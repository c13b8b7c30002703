// Network-level BGP dynamics: failover, withdrawal cascades, competing
// origins — the behaviours the hijack experiments depend on, exercised
// directly on small hand-built topologies.
#include <gtest/gtest.h>

#include "artemis/detection.hpp"
#include "artemis/mitigation.hpp"
#include "artemis/monitoring.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"

namespace artemis::sim {
namespace {

const net::Prefix kPrefix = net::Prefix::must_parse("10.0.0.0/23");

// Diamond: 1 -- 2 and 1 -- 3 (customers), both 2 and 3 provide for 4.
topo::AsGraph diamond() {
  topo::AsGraph g;
  g.add_as(1, topo::Tier::kTier1);
  g.add_as(2, topo::Tier::kTier2);
  g.add_as(3, topo::Tier::kTier2);
  g.add_as(4, topo::Tier::kStub);
  g.add_customer_link(1, 2);
  g.add_customer_link(1, 3);
  g.add_customer_link(2, 4);
  g.add_customer_link(3, 4);
  return g;
}

NetworkParams fast_params() {
  NetworkParams params;
  params.mrai = SimDuration::zero();
  return params;
}

TEST(NetworkDynamicsTest, MultihomedFailover) {
  const auto graph = diamond();
  Network network(graph, fast_params(), Rng(1));
  network.speaker(4).originate(kPrefix);
  network.run_to_convergence();

  // AS1 reaches 4 via one of its two customers.
  const auto* before = network.speaker(1).best_route(kPrefix);
  ASSERT_NE(before, nullptr);
  const bgp::Asn first_hop = before->learned_from;
  ASSERT_TRUE(first_hop == 2 || first_hop == 3);

  // Kill the active path by withdrawing at the stub toward that provider:
  // simulate link failure by having the transit lose its route — simplest
  // equivalent: the origin withdraws and re-announces; the network must
  // re-converge onto a consistent state (no stuck stale routes).
  network.speaker(4).withdraw_origin(kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(1).best_route(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(2).best_route(kPrefix), nullptr);
  EXPECT_EQ(network.speaker(3).best_route(kPrefix), nullptr);

  network.speaker(4).originate(kPrefix);
  network.run_to_convergence();
  ASSERT_NE(network.speaker(1).best_route(kPrefix), nullptr);
  EXPECT_EQ(network.resolve_origin(1, kPrefix.address()), 4u);
}

TEST(NetworkDynamicsTest, WithdrawCascadeReachesEveryone) {
  // Chain: 1 <- 2 <- 3 <- 4(origin), plus peer 5 of 1.
  topo::AsGraph g;
  for (bgp::Asn a = 1; a <= 5; ++a) g.add_as(a);
  g.add_customer_link(1, 2);
  g.add_customer_link(2, 3);
  g.add_customer_link(3, 4);
  g.add_peer_link(1, 5);
  NetworkParams params;
  params.mrai = SimDuration::seconds(10);  // pacing on: cascade takes time
  Network network(g, params, Rng(2));

  network.speaker(4).originate(kPrefix);
  network.run_to_convergence();
  EXPECT_EQ(network.resolve_origin(5, kPrefix.address()), 4u);
  const SimTime converged = network.simulator().now();

  network.speaker(4).withdraw_origin(kPrefix);
  network.run_to_convergence();
  for (const bgp::Asn asn : {1u, 2u, 3u, 5u}) {
    EXPECT_EQ(network.resolve_origin(asn, kPrefix.address()), bgp::kNoAsn)
        << "AS" << asn;
  }
  // The withdrawal needed at least one pacing interval to cross the chain.
  EXPECT_GT(network.simulator().now() - converged, SimDuration::seconds(5));
}

TEST(NetworkDynamicsTest, CompetingOriginsPartitionTheGraph) {
  // Two origins announce the same prefix from opposite ends of a chain:
  // 1 <- 2 <- 3, 1 <- 4; origin A = 3, origin B = 4.
  topo::AsGraph g;
  for (bgp::Asn a = 1; a <= 4; ++a) g.add_as(a);
  g.add_customer_link(1, 2);
  g.add_customer_link(2, 3);
  g.add_customer_link(1, 4);
  Network network(g, fast_params(), Rng(3));

  network.speaker(3).originate(kPrefix);
  network.run_to_convergence();
  network.speaker(4).originate(kPrefix);
  network.run_to_convergence();

  // Each origin keeps itself; AS2 stays with its customer 3; AS1 prefers
  // its direct customer 4 (shorter customer path).
  EXPECT_EQ(network.resolve_origin(3, kPrefix.address()), 3u);
  EXPECT_EQ(network.resolve_origin(4, kPrefix.address()), 4u);
  EXPECT_EQ(network.resolve_origin(2, kPrefix.address()), 3u);
  EXPECT_EQ(network.resolve_origin(1, kPrefix.address()), 4u);
}

TEST(NetworkDynamicsTest, MoreSpecificAlwaysBeatsShorterPath) {
  // AS1 has a direct customer route for the /23 but learns a /24 from two
  // hops away: LPM must send /24 addresses the long way.
  topo::AsGraph g;
  for (bgp::Asn a = 1; a <= 4; ++a) g.add_as(a);
  g.add_customer_link(1, 2);       // 2 announces the /23
  g.add_customer_link(1, 3);
  g.add_customer_link(3, 4);       // 4 announces a /24 inside it
  Network network(g, fast_params(), Rng(4));

  network.speaker(2).originate(kPrefix);
  network.speaker(4).originate(net::Prefix::must_parse("10.0.1.0/24"));
  network.run_to_convergence();

  EXPECT_EQ(network.resolve_origin(1, net::IpAddress::parse("10.0.0.1").value()), 2u);
  EXPECT_EQ(network.resolve_origin(1, net::IpAddress::parse("10.0.1.1").value()), 4u);
}

TEST(NetworkDynamicsTest, PacedConvergenceScalesWithDepth) {
  // Convergence time grows with chain depth under pacing.
  auto chain_convergence = [](int depth) {
    topo::AsGraph g;
    for (bgp::Asn a = 1; a <= static_cast<bgp::Asn>(depth); ++a) g.add_as(a);
    for (int a = 1; a < depth; ++a) {
      g.add_customer_link(static_cast<bgp::Asn>(a), static_cast<bgp::Asn>(a + 1));
    }
    NetworkParams params;
    params.mrai = SimDuration::seconds(30);
    Network network(g, params, Rng(42));
    network.speaker(static_cast<bgp::Asn>(depth)).originate(kPrefix);
    network.run_to_convergence();
    return network.simulator().now();
  };
  EXPECT_LT(chain_convergence(3), chain_convergence(9));
}

}  // namespace
}  // namespace artemis::sim

namespace artemis::core {
namespace {

TEST(MultiPrefixTest, MonitoringTracksSeveralOwnedPrefixesIndependently) {
  Config config;
  for (const auto text : {"10.0.0.0/23", "192.0.2.0/24"}) {
    config.add_owned(net::Prefix::must_parse(text), {65001});
  }
  MonitoringService monitoring(config);

  auto obs = [](bgp::Asn vantage, std::string_view prefix, bgp::Asn origin) {
    feeds::Observation o;
    o.type = feeds::ObservationType::kAnnouncement;
    o.vantage = vantage;
    o.prefix = net::Prefix::must_parse(prefix);
    o.attrs.as_path = bgp::AsPath({vantage, origin});
    return o;
  };
  monitoring.process(obs(9, "10.0.0.0/23", 65001));
  monitoring.process(obs(9, "192.0.2.0/24", 65001));
  monitoring.process(obs(9, "192.0.2.0/24", 666));  // second prefix hijacked

  EXPECT_EQ(monitoring.vantage_legitimate(9, net::Prefix::must_parse("10.0.0.0/23")),
            true);
  EXPECT_EQ(monitoring.vantage_legitimate(9, net::Prefix::must_parse("192.0.2.0/24")),
            false);
}

TEST(MultiPrefixTest, DetectionKeepsPerPrefixGroundTruth) {
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  config.add_owned(net::Prefix::must_parse("192.0.2.0/24"), {65002});  // different origin!
  DetectionService detector(config);

  auto obs = [](std::string_view prefix, bgp::Asn origin) {
    feeds::Observation o;
    o.type = feeds::ObservationType::kAnnouncement;
    o.vantage = 9;
    o.source = "test";
    o.prefix = net::Prefix::must_parse(prefix);
    o.attrs.as_path = bgp::AsPath({9, origin});
    return o;
  };
  // Each origin is valid only for its own prefix.
  detector.process(obs("10.0.0.0/23", 65001));
  detector.process(obs("192.0.2.0/24", 65002));
  EXPECT_TRUE(detector.alerts().empty());
  detector.process(obs("10.0.0.0/23", 65002));
  detector.process(obs("192.0.2.0/24", 65001));
  EXPECT_EQ(detector.alerts().size(), 2u);
}

TEST(Ipv6Test, DetectionAndPlanningWorkOnV6Prefixes) {
  Config config;
  config.add_owned(net::Prefix::must_parse("2001:db8::/32"), {65001});
  DetectionService detector(config);

  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.vantage = 9;
  obs.source = "test";
  obs.prefix = net::Prefix::must_parse("2001:db8::/32");
  obs.attrs.as_path = bgp::AsPath({9, 666});
  detector.process(obs);
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kExactOrigin);

  // De-aggregation plans split v6 prefixes just the same (floor /48).
  MitigationPolicy policy;
  policy.deaggregation_floor = 48;
  policy.reannounce_exact = false;
  const auto plan = plan_mitigation(net::Prefix::must_parse("2001:db8::/32"),
                                    net::Prefix::must_parse("2001:db8::/32"), policy);
  EXPECT_TRUE(plan.deaggregation_possible);
  ASSERT_EQ(plan.announcements.size(), 2u);
  EXPECT_EQ(plan.announcements[0].to_string(), "2001:db8::/33");
  EXPECT_EQ(plan.announcements[1].to_string(), "2001:db8:8000::/33");
}

}  // namespace
}  // namespace artemis::core
