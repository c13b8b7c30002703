#include <gtest/gtest.h>

#include "feeds/batch_feed.hpp"
#include "feeds/looking_glass.hpp"
#include "feeds/monitor_hub.hpp"
#include "feeds/stream_feed.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"

namespace artemis::feeds {
namespace {

// Shared fixture: a 4-AS line (1 tier1 <- 2 <- 3 victim) plus peer 4 of 1.
struct FeedsFixture {
  topo::AsGraph graph;
  std::unique_ptr<sim::Network> network;

  explicit FeedsFixture(SimDuration mrai = SimDuration::zero(), std::uint64_t seed = 1) {
    graph.add_as(1, topo::Tier::kTier1);
    graph.add_as(2, topo::Tier::kTier2);
    graph.add_as(3, topo::Tier::kStub);
    graph.add_as(4, topo::Tier::kTier2);
    graph.add_customer_link(1, 2);
    graph.add_customer_link(2, 3);
    graph.add_peer_link(1, 4);
    sim::NetworkParams params;
    params.mrai = mrai;
    network = std::make_unique<sim::Network>(graph, params, Rng(seed));
  }
};

/// Subscribes `out` to a feed's batch stream, flattened in delivery order.
template <typename Feed>
void collect(Feed& feed, std::vector<Observation>& out) {
  feed.subscribe_batch([&out](std::span<const Observation> batch) {
    out.insert(out.end(), batch.begin(), batch.end());
  });
}

TEST(StreamFeedTest, DeliversObservationsWithLatency) {
  FeedsFixture f;
  StreamFeedParams params;
  params.name = "ris-live";
  params.vantages = {1, 2};
  params.median_latency = SimDuration::seconds(5);
  params.latency_sigma = 0.3;
  StreamFeed feed(*f.network, params, Rng(7));

  std::vector<Observation> received;
  collect(feed, received);

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->run_to_convergence();

  ASSERT_GE(received.size(), 2u);  // both vantages converged onto the route
  for (const auto& obs : received) {
    EXPECT_EQ(obs.type, ObservationType::kAnnouncement);
    EXPECT_EQ(obs.source, "ris-live");
    EXPECT_EQ(obs.origin_as(), 3u);
    EXPECT_GT(obs.feed_lag(), SimDuration::zero());
    EXPECT_EQ(obs.delivered_at - obs.event_time, obs.feed_lag());
  }
  EXPECT_EQ(feed.delivered_count(), received.size());
}

TEST(StreamFeedTest, VantagePathIncludesVantageAsn) {
  FeedsFixture f;
  StreamFeedParams params;
  params.vantages = {1};
  StreamFeed feed(*f.network, params, Rng(8));
  std::vector<Observation> received;
  collect(feed, received);
  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->run_to_convergence();
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.back().attrs.as_path.to_string(), "1 2 3");
  EXPECT_EQ(received.back().vantage, 1u);
}

TEST(StreamFeedTest, WithdrawalsDelivered) {
  FeedsFixture f;
  StreamFeedParams params;
  params.vantages = {1};
  StreamFeed feed(*f.network, params, Rng(9));
  std::vector<Observation> received;
  collect(feed, received);
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");
  f.network->speaker(3).originate(prefix);
  f.network->run_to_convergence();
  received.clear();
  f.network->speaker(3).withdraw_origin(prefix);
  f.network->run_to_convergence();
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.back().type, ObservationType::kWithdrawal);
}

TEST(StreamFeedTest, MultipleFeedsOnSameVantageCoexist) {
  FeedsFixture f;
  StreamFeedParams a;
  a.name = "ris-live";
  a.vantages = {1};
  StreamFeedParams b;
  b.name = "bgpmon";
  b.vantages = {1};
  StreamFeed feed_a(*f.network, a, Rng(1));
  StreamFeed feed_b(*f.network, b, Rng(2));
  std::vector<Observation> from_a;
  std::vector<Observation> from_b;
  collect(feed_a, from_a);
  collect(feed_b, from_b);
  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->run_to_convergence();
  EXPECT_FALSE(from_a.empty());
  EXPECT_FALSE(from_b.empty());
}

TEST(BatchFeedTest, UpdatesArriveOnlyAtWindowBoundaries) {
  FeedsFixture f;
  BatchFeedParams params;
  params.name = "batch-15m";
  params.vantages = {1};
  params.mode = BatchMode::kUpdates;
  params.interval = SimDuration::minutes(15);
  params.publish_delay = SimDuration::seconds(60);
  BatchFeed feed(*f.network, params, Rng(3));

  std::vector<Observation> received;
  collect(feed, received);

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  auto& sim = f.network->simulator();
  sim.run_until(SimTime::at_seconds(10));
  EXPECT_TRUE(received.empty());  // route converged but file not yet out

  sim.run_until(SimTime::at_seconds(15 * 60 + 61));
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.front().source, "batch-15m");
  EXPECT_EQ(received.front().type, ObservationType::kAnnouncement);
  EXPECT_EQ(received.front().origin_as(), 3u);
  // The event time survives the archive round-trip; the lag is the window.
  EXPECT_LT(received.front().event_time, SimTime::at_seconds(10));
  EXPECT_EQ(received.front().delivered_at, SimTime::at_seconds(15 * 60 + 60));
  EXPECT_GE(feed.bytes_published(), 1u);
  EXPECT_EQ(feed.files_published(), 1u);
}

TEST(BatchFeedTest, EmptyWindowsPublishNothing) {
  FeedsFixture f;
  BatchFeedParams params;
  params.vantages = {1};
  params.interval = SimDuration::minutes(15);
  BatchFeed feed(*f.network, params, Rng(4));
  std::vector<Observation> received;
  collect(feed, received);
  f.network->simulator().run_until(SimTime::at_seconds(3600));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(feed.files_published(), 0u);
}

TEST(BatchFeedTest, RibDumpSnapshotsFullTable) {
  FeedsFixture f;
  BatchFeedParams params;
  params.name = "rib-2h";
  params.vantages = {1, 2};
  params.mode = BatchMode::kRibDump;
  params.interval = SimDuration::hours(2);
  params.publish_delay = SimDuration::minutes(5);
  BatchFeed feed(*f.network, params, Rng(5));

  std::vector<Observation> received;
  collect(feed, received);

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->simulator().run_until(SimTime::at_seconds(2 * 3600 + 301));

  ASSERT_EQ(received.size(), 2u);  // one RIB entry per vantage
  for (const auto& obs : received) {
    EXPECT_EQ(obs.type, ObservationType::kRouteState);
    EXPECT_EQ(obs.origin_as(), 3u);
    // The dump time (the record header), not the route's install time —
    // the same event time the archive importer gives a RIB entry.
    EXPECT_EQ(obs.event_time, SimTime::at_seconds(2 * 3600));
    EXPECT_EQ(obs.delivered_at, SimTime::at_seconds(2 * 3600 + 300));
  }
  // Vantage 1's exported path must include itself.
  bool found_v1 = false;
  for (const auto& obs : received) {
    if (obs.vantage == 1) {
      EXPECT_EQ(obs.attrs.as_path.to_string(), "1 2 3");
      found_v1 = true;
    }
  }
  EXPECT_TRUE(found_v1);
}

TEST(LookingGlassTest, QueryReturnsCurrentBestAfterLatency) {
  FeedsFixture f;
  LookingGlassParams params;
  params.asn = 1;
  params.min_query_latency = SimDuration::seconds(1);
  params.max_query_latency = SimDuration::seconds(2);
  LookingGlass lg(*f.network, params, Rng(6));

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->run_to_convergence();

  std::vector<Observation> results;
  SimTime answered;
  lg.query(net::Prefix::must_parse("10.0.0.0/23"),
           [&](const std::vector<Observation>& obs) {
             results = obs;
             answered = f.network->simulator().now();
           });
  const SimTime asked = f.network->simulator().now();
  f.network->run_to_convergence();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].type, ObservationType::kRouteState);
  EXPECT_EQ(results[0].origin_as(), 3u);
  EXPECT_EQ(results[0].attrs.as_path.to_string(), "1 2 3");
  EXPECT_GE(answered - asked, SimDuration::seconds(1));
  EXPECT_LE(answered - asked, SimDuration::seconds(2));
  EXPECT_EQ(lg.queries_served(), 1u);
}

TEST(LookingGlassTest, QueryShowsMoreSpecifics) {
  FeedsFixture f;
  LookingGlassParams params;
  params.asn = 1;
  LookingGlass lg(*f.network, params, Rng(7));
  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.1.0/24"));
  f.network->run_to_convergence();

  std::vector<Observation> results;
  lg.query(net::Prefix::must_parse("10.0.0.0/23"),
           [&](const std::vector<Observation>& obs) { results = obs; });
  f.network->run_to_convergence();
  ASSERT_EQ(results.size(), 2u);  // the /23 and the more-specific /24
}

TEST(LookingGlassTest, QueryOnUnknownPrefixReturnsEmpty) {
  FeedsFixture f;
  LookingGlassParams params;
  params.asn = 1;
  LookingGlass lg(*f.network, params, Rng(8));
  std::vector<Observation> results{Observation{}};
  lg.query(net::Prefix::must_parse("203.0.113.0/24"),
           [&](const std::vector<Observation>& obs) { results = obs; });
  f.network->run_to_convergence();
  EXPECT_TRUE(results.empty());
}

TEST(PeriscopeTest, PollsAllGlassesEachInterval) {
  FeedsFixture f;
  std::vector<LookingGlassParams> glasses;
  for (const bgp::Asn asn : {1u, 2u, 4u}) {
    LookingGlassParams lg;
    lg.asn = asn;
    glasses.push_back(lg);
  }
  PeriscopeParams params;
  params.poll_interval = SimDuration::seconds(60);
  PeriscopeClient client(*f.network, glasses, params, Rng(9));
  client.monitor_prefix(net::Prefix::must_parse("10.0.0.0/23"));

  std::vector<Observation> received;
  collect(client, received);

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->simulator().run_until(SimTime::at_seconds(305));

  // ~5 minutes => each LG polled ~5 times.
  EXPECT_GE(client.queries_issued(), 12u);
  EXPECT_LE(client.queries_issued(), 18u);
  ASSERT_FALSE(received.empty());
  for (const auto& obs : received) {
    EXPECT_EQ(obs.source, "periscope");
    EXPECT_EQ(obs.type, ObservationType::kRouteState);
  }
}

TEST(PeriscopeTest, RateLimitSkipsQueries) {
  FeedsFixture f;
  std::vector<LookingGlassParams> glasses;
  for (const bgp::Asn asn : {1u, 2u, 4u}) {
    LookingGlassParams lg;
    lg.asn = asn;
    glasses.push_back(lg);
  }
  PeriscopeParams params;
  params.poll_interval = SimDuration::seconds(60);
  params.max_queries_per_interval = 1;
  PeriscopeClient client(*f.network, glasses, params, Rng(10));
  client.monitor_prefix(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->simulator().run_until(SimTime::at_seconds(300));
  EXPECT_GT(client.queries_rate_limited(), 0u);
  EXPECT_LE(client.queries_issued(), 6u);
}

TEST(BatchFeedTest, MultipleWindowsDeliverInOrder) {
  FeedsFixture f;
  BatchFeedParams params;
  params.vantages = {1};
  params.interval = SimDuration::minutes(15);
  params.publish_delay = SimDuration::seconds(30);
  BatchFeed feed(*f.network, params, Rng(11));
  std::vector<Observation> received;
  collect(feed, received);

  auto& sim = f.network->simulator();
  const auto prefix = net::Prefix::must_parse("10.0.0.0/23");
  // Window 1: announce. Window 2: withdraw. Window 3: announce again.
  sim.at(SimTime::at_seconds(10), [&] { f.network->speaker(3).originate(prefix); });
  sim.at(SimTime::at_seconds(16 * 60),
         [&] { f.network->speaker(3).withdraw_origin(prefix); });
  sim.at(SimTime::at_seconds(31 * 60), [&] { f.network->speaker(3).originate(prefix); });
  sim.run_until(SimTime::at_seconds(46 * 60));

  ASSERT_GE(received.size(), 3u);
  EXPECT_EQ(feed.files_published(), 3u);
  // Delivery times are window boundaries + publish delay, strictly ordered.
  for (std::size_t i = 1; i < received.size(); ++i) {
    EXPECT_GE(received[i].delivered_at, received[i - 1].delivered_at);
  }
  EXPECT_EQ(received.front().delivered_at, SimTime::at_seconds(15 * 60 + 30));
  // The middle window carries the withdrawal.
  bool saw_withdrawal = false;
  for (const auto& obs : received) {
    if (obs.type == ObservationType::kWithdrawal) saw_withdrawal = true;
  }
  EXPECT_TRUE(saw_withdrawal);
}

TEST(StreamFeedTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    FeedsFixture f(SimDuration::zero(), seed);
    StreamFeedParams params;
    params.vantages = {1, 2};
    StreamFeed feed(*f.network, params, Rng(seed));
    std::vector<Observation> received;
    collect(feed, received);
    f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
    f.network->run_to_convergence();
    std::vector<double> deliveries;
    for (const auto& obs : received) {
      deliveries.push_back(obs.delivered_at.as_seconds());
    }
    return deliveries;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(StreamFeedTest, BatchSubscribersSeeWholeMessages) {
  FeedsFixture f;
  StreamFeedParams params;
  params.vantages = {1, 2};
  StreamFeed feed(*f.network, params, Rng(12));

  std::size_t batch_count = 0;
  std::size_t batched_total = 0;
  feed.subscribe_batch([&](std::span<const Observation> batch) {
    ++batch_count;
    batched_total += batch.size();
    // One collector message = one delivery instant for every observation.
    for (const auto& obs : batch) {
      EXPECT_EQ(obs.delivered_at, batch.front().delivered_at);
      EXPECT_EQ(obs.source, batch.front().source);
      EXPECT_EQ(obs.vantage, batch.front().vantage);
    }
  });

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->run_to_convergence();

  EXPECT_GT(batch_count, 0u);
  EXPECT_EQ(feed.delivered_count(), batched_total);
}

TEST(BatchFeedTest, FilesArriveAsSingleBatches) {
  FeedsFixture f;
  BatchFeedParams params;
  params.vantages = {1, 2};
  params.interval = SimDuration::minutes(15);
  params.publish_delay = SimDuration::seconds(60);
  BatchFeed feed(*f.network, params, Rng(13));

  std::vector<std::size_t> batch_sizes;
  feed.subscribe_batch([&](std::span<const Observation> batch) {
    batch_sizes.push_back(batch.size());
  });

  f.network->speaker(3).originate(net::Prefix::must_parse("10.0.0.0/23"));
  f.network->simulator().run_until(SimTime::at_seconds(15 * 60 + 61));

  // One file published => exactly one batch, carrying every decoded elem.
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_GE(batch_sizes.front(), 2u);  // both vantages' updates in the window
}

TEST(MonitorHubTest, FanOutAndCounters) {
  MonitorHub hub;
  std::vector<Observation> a;
  std::vector<Observation> b;
  collect(hub, a);
  collect(hub, b);
  Observation obs;
  obs.source = "ris-live";
  hub.publish_batch({&obs, 1});
  obs.source = "bgpmon";
  hub.batch_inlet()({&obs, 1});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(hub.total_observations(), 2u);
  EXPECT_EQ(hub.per_source_counts().at("ris-live"), 1u);
  EXPECT_EQ(hub.per_source_counts().at("bgpmon"), 1u);
}

TEST(ObservationTest, ToStringMentionsKeyFields) {
  Observation obs;
  obs.type = ObservationType::kAnnouncement;
  obs.source = "ris-live";
  obs.vantage = 9;
  obs.prefix = net::Prefix::must_parse("10.0.0.0/23");
  obs.attrs.as_path = bgp::AsPath({9, 3});
  obs.event_time = SimTime::at_seconds(1);
  obs.delivered_at = SimTime::at_seconds(6);
  const auto s = obs.to_string();
  EXPECT_NE(s.find("10.0.0.0/23"), std::string::npos);
  EXPECT_NE(s.find("AS9"), std::string::npos);
  EXPECT_NE(s.find("ris-live"), std::string::npos);
  EXPECT_NE(s.find("5.0s"), std::string::npos);
}

}  // namespace
}  // namespace artemis::feeds
