#include <gtest/gtest.h>

#include "artemis/mitigation.hpp"

namespace artemis::core {
namespace {

// ------------------------------------------------------- plan_mitigation

MitigationPolicy policy(int floor = 24, bool reannounce = false) {
  MitigationPolicy p;
  p.deaggregation_floor = floor;
  p.reannounce_exact = reannounce;
  return p;
}

TEST(PlanTest, ExactHijackOf23SplitsIntoTwo24s) {
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.0/23"),
                                    net::Prefix::must_parse("10.0.0.0/23"), policy());
  EXPECT_TRUE(plan.deaggregation_possible);
  ASSERT_EQ(plan.announcements.size(), 2u);
  EXPECT_EQ(plan.announcements[0].to_string(), "10.0.0.0/24");
  EXPECT_EQ(plan.announcements[1].to_string(), "10.0.1.0/24");
}

TEST(PlanTest, SubPrefixHijackScopesToObserved) {
  // Attacker announced 10.0.1.0/25 inside our /23 — with floor 25 allowed
  // we would split the /25; with the real-world floor 24 we cannot beat it.
  const auto plan25 = plan_mitigation(net::Prefix::must_parse("10.0.0.0/23"),
                                      net::Prefix::must_parse("10.0.1.0/25"), policy(26));
  EXPECT_TRUE(plan25.deaggregation_possible);
  ASSERT_EQ(plan25.announcements.size(), 2u);
  EXPECT_EQ(plan25.announcements[0].to_string(), "10.0.1.0/26");
  EXPECT_EQ(plan25.announcements[1].to_string(), "10.0.1.64/26");
}

TEST(PlanTest, Slash24VictimCannotDeaggregate) {
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.0/24"),
                                    net::Prefix::must_parse("10.0.0.0/24"), policy());
  EXPECT_FALSE(plan.deaggregation_possible);
  EXPECT_TRUE(plan.announcements.empty());
}

TEST(PlanTest, Slash24VictimFallsBackToReannounce) {
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.0/24"),
                                    net::Prefix::must_parse("10.0.0.0/24"),
                                    policy(24, /*reannounce=*/true));
  EXPECT_FALSE(plan.deaggregation_possible);
  ASSERT_EQ(plan.announcements.size(), 1u);
  EXPECT_EQ(plan.announcements[0].to_string(), "10.0.0.0/24");
}

TEST(PlanTest, ReannounceAppendsOwnedPrefix) {
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.0/23"),
                                    net::Prefix::must_parse("10.0.0.0/23"),
                                    policy(24, /*reannounce=*/true));
  ASSERT_EQ(plan.announcements.size(), 3u);
  EXPECT_EQ(plan.announcements[2].to_string(), "10.0.0.0/23");
}

TEST(PlanTest, SuperPrefixHijackScopesToOwned) {
  // Attacker announced 10.0.0.0/16 covering our /23: we split our /23.
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.0/23"),
                                    net::Prefix::must_parse("10.0.0.0/16"), policy());
  EXPECT_TRUE(plan.deaggregation_possible);
  ASSERT_EQ(plan.announcements.size(), 2u);
  EXPECT_EQ(plan.announcements[0].to_string(), "10.0.0.0/24");
}

TEST(PlanTest, HostPrefixNeverSplits) {
  const auto plan = plan_mitigation(net::Prefix::must_parse("10.0.0.1/32"),
                                    net::Prefix::must_parse("10.0.0.1/32"), policy(32));
  EXPECT_FALSE(plan.deaggregation_possible);
}

// -------------------------------------------------- MitigationService

struct RecordingController : Controller {
  std::vector<net::Prefix> announced;
  std::vector<net::Prefix> withdrawn;
  void announce(const net::Prefix& p) override { announced.push_back(p); }
  void withdraw(const net::Prefix& p) override { withdrawn.push_back(p); }
};

Config victim_config(bool auto_mitigate = true) {
  Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  config.mitigation().auto_mitigate = auto_mitigate;
  config.mitigation().reannounce_exact = false;
  return config;
}

HijackAlert sample_alert(std::string_view observed = "10.0.0.0/23", bgp::Asn offender = 666) {
  HijackAlert alert;
  alert.type = HijackType::kExactOrigin;
  alert.owned_prefix = net::Prefix::must_parse("10.0.0.0/23");
  alert.observed_prefix = net::Prefix::must_parse(observed);
  alert.offender = offender;
  alert.detected_at = SimTime::at_seconds(100);
  return alert;
}

TEST(MitigationServiceTest, AlertTriggersControllerAnnouncements) {
  const auto config = victim_config();
  RecordingController controller;
  sim::Simulator sim;
  MitigationService service(config, controller, sim);

  int notified = 0;
  service.on_mitigation([&](const MitigationRecord& record) {
    ++notified;
    EXPECT_TRUE(record.plan.deaggregation_possible);
  });
  service.handle_alert(sample_alert());

  ASSERT_EQ(controller.announced.size(), 2u);
  EXPECT_EQ(controller.announced[0].to_string(), "10.0.0.0/24");
  EXPECT_EQ(controller.announced[1].to_string(), "10.0.1.0/24");
  EXPECT_EQ(notified, 1);
  ASSERT_EQ(service.records().size(), 1u);
  EXPECT_EQ(service.records()[0].triggered_at, sim.now());
}

TEST(MitigationServiceTest, DuplicateAlertsMitigatedOnce) {
  const auto config = victim_config();
  RecordingController controller;
  sim::Simulator sim;
  MitigationService service(config, controller, sim);
  service.handle_alert(sample_alert());
  service.handle_alert(sample_alert());
  EXPECT_EQ(controller.announced.size(), 2u);
  EXPECT_EQ(service.records().size(), 1u);
}

TEST(MitigationServiceTest, DistinctHijacksMitigatedSeparately) {
  const auto config = victim_config();
  RecordingController controller;
  sim::Simulator sim;
  MitigationService service(config, controller, sim);
  service.handle_alert(sample_alert("10.0.0.0/23", 666));
  service.handle_alert(sample_alert("10.0.1.0/24", 777));
  EXPECT_EQ(service.records().size(), 2u);
}

TEST(MitigationServiceTest, AutoMitigateOffIgnoresAlerts) {
  const auto config = victim_config(/*auto_mitigate=*/false);
  RecordingController controller;
  sim::Simulator sim;
  MitigationService service(config, controller, sim);
  service.handle_alert(sample_alert());
  EXPECT_TRUE(controller.announced.empty());
  EXPECT_TRUE(service.records().size() == 0);
}

TEST(MitigationServiceTest, OutsourcingActivatesWhenInfeasible) {
  auto config = victim_config();
  // /24 victim: reshape the owned prefix via a /24 alert.
  RecordingController primary;
  RecordingController helper_a;
  RecordingController helper_b;
  sim::Simulator sim;
  MitigationService service(config, primary, sim);
  service.add_helper(helper_a);
  service.add_helper(helper_b);
  EXPECT_EQ(service.helper_count(), 2u);

  // Infeasible case: sub-prefix hijack of a /24 inside the owned /23 —
  // the scope /24 cannot be split below the floor.
  HijackAlert alert = sample_alert("10.0.1.0/24", 666);
  alert.type = HijackType::kSubPrefix;
  service.handle_alert(alert);

  ASSERT_EQ(service.records().size(), 1u);
  EXPECT_FALSE(service.records()[0].plan.deaggregation_possible);
  EXPECT_EQ(service.records()[0].helpers_used, 2u);
  // Helpers co-announce the owned prefix (plan had no announcements).
  ASSERT_EQ(helper_a.announced.size(), 1u);
  EXPECT_EQ(helper_a.announced[0].to_string(), "10.0.0.0/23");
  EXPECT_EQ(helper_b.announced.size(), 1u);
}

TEST(MitigationServiceTest, OutsourcingSkippedWhenDeaggWorks) {
  auto config = victim_config();
  RecordingController primary;
  RecordingController helper;
  sim::Simulator sim;
  MitigationService service(config, primary, sim);
  service.add_helper(helper);
  service.handle_alert(sample_alert());  // exact /23 hijack: deagg works
  ASSERT_EQ(service.records().size(), 1u);
  EXPECT_TRUE(service.records()[0].plan.deaggregation_possible);
  EXPECT_EQ(service.records()[0].helpers_used, 0u);
  EXPECT_TRUE(helper.announced.empty());
}

TEST(MitigationServiceTest, OutsourceAlwaysCoAnnouncesPlan) {
  auto config = victim_config();
  config.mitigation().outsource = MitigationPolicy::Outsource::kAlways;
  RecordingController primary;
  RecordingController helper;
  sim::Simulator sim;
  MitigationService service(config, primary, sim);
  service.add_helper(helper);
  service.handle_alert(sample_alert());
  ASSERT_EQ(helper.announced.size(), 2u);  // both /24 halves
  EXPECT_EQ(service.records()[0].helpers_used, 1u);
}

TEST(MitigationServiceTest, OutsourceNeverDisablesHelpers) {
  auto config = victim_config();
  config.mitigation().outsource = MitigationPolicy::Outsource::kNever;
  RecordingController primary;
  RecordingController helper;
  sim::Simulator sim;
  MitigationService service(config, primary, sim);
  service.add_helper(helper);
  HijackAlert alert = sample_alert("10.0.1.0/24", 666);
  alert.type = HijackType::kSubPrefix;
  service.handle_alert(alert);
  EXPECT_TRUE(helper.announced.empty());
  EXPECT_EQ(service.records()[0].helpers_used, 0u);
}

// ------------------------------------------------------- SimController

TEST(SimControllerTest, AppliesAfterLatencyAndLogs) {
  topo::AsGraph graph;
  graph.add_as(1, topo::Tier::kTier1);
  graph.add_as(2, topo::Tier::kStub);
  graph.add_customer_link(1, 2);
  sim::NetworkParams params;
  params.mrai = SimDuration::zero();
  sim::Network network(graph, params, Rng(1));

  SimController controller(network, 2, SimDuration::seconds(15));
  const auto prefix = net::Prefix::must_parse("10.0.0.0/24");
  controller.announce(prefix);
  ASSERT_EQ(controller.log().size(), 1u);
  EXPECT_EQ(controller.log()[0].issued_at, SimTime::zero());
  EXPECT_EQ(controller.log()[0].applied_at, SimTime::at_seconds(15));

  network.simulator().run_until(SimTime::at_seconds(14));
  EXPECT_EQ(network.speaker(2).best_route(prefix), nullptr);
  network.run_to_convergence();
  ASSERT_NE(network.speaker(2).best_route(prefix), nullptr);
  EXPECT_EQ(network.resolve_origin(1, prefix.address()), 2u);

  controller.withdraw(prefix);
  network.run_to_convergence();
  EXPECT_EQ(network.speaker(2).best_route(prefix), nullptr);
  EXPECT_EQ(network.resolve_origin(1, prefix.address()), bgp::kNoAsn);
  ASSERT_EQ(controller.log().size(), 2u);
  EXPECT_EQ(controller.log()[1].kind, ControllerCommand::Kind::kWithdraw);
}

}  // namespace
}  // namespace artemis::core
