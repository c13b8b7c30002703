// The batched/sharded observation pipeline (src/pipeline/).
//
// The two load-bearing suites are oracles:
//   * PipelineOracleTest — DetectionService::process_batch must equal
//     repeated process() exactly (alerts, counts, first-seen times).
//   * ShardedEquivalence — ShardedDetector{N=1} and {N=4}, inline and
//     threaded, must produce bit-identical merged output.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "pipeline/observation_batch.hpp"
#include "pipeline/sharded_detector.hpp"
#include "pipeline/spsc_ring.hpp"
#include "rpki/roa.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace artemis::pipeline {
namespace {

using core::AlertKey;
using core::Config;
using core::DetectionOptions;
using core::DetectionService;
using core::HijackAlert;
using feeds::Observation;
using feeds::ObservationType;

Config make_config() {
  Config config;
  // Only AS3356 may sit next to the origin: with fake-first-hop
  // detection on, a legitimate origin behind any other hop alerts.
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001}, {3356});
  config.add_owned(net::Prefix::must_parse("192.0.2.0/24"), {65002});
  return config;
}

Observation make_obs(std::string_view prefix, std::vector<bgp::Asn> path,
                     std::string source, double at_seconds,
                     ObservationType type = ObservationType::kAnnouncement) {
  Observation obs;
  obs.type = type;
  obs.source = std::move(source);
  obs.vantage = path.empty() ? 9 : path.front();
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath(std::move(path));
  obs.event_time = SimTime::at_seconds(at_seconds - 5);
  obs.delivered_at = SimTime::at_seconds(at_seconds);
  return obs;
}

/// A mixed scenario stream: hijacks against both owned prefixes (exact,
/// sub-prefix, super-prefix), legitimate announcements, unrelated noise,
/// several sources, offenders and first hops, with bursty repetition —
/// the shape a real merged feed has. One burst in three alternates its
/// first hop, so neighbouring observations differ only in that hop.
std::vector<Observation> scenario_stream(std::uint64_t seed, int count) {
  Rng rng(seed);
  const std::vector<std::string> prefixes = {
      "10.0.0.0/23",    // owned #1 exact
      "10.0.1.0/24",    // sub-prefix of owned #1
      "10.0.0.0/16",    // super-prefix of owned #1
      "192.0.2.0/24",   // owned #2 exact
      "192.0.2.128/25", // sub-prefix of owned #2
      "203.0.113.0/24", // unrelated
      "198.51.100.0/24" // unrelated
  };
  const std::vector<bgp::Asn> origins = {666, 667, 65001, 65002};
  const std::vector<bgp::Asn> hops = {3356, 174, 1299};
  const std::vector<std::string> sources = {"ris-live", "bgpmon", "periscope"};
  std::vector<Observation> stream;
  stream.reserve(static_cast<std::size_t>(count));
  double t = 100.0;
  while (static_cast<int>(stream.size()) < count) {
    const auto& prefix = prefixes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(prefixes.size()) - 1))];
    const auto origin = origins[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const auto& source = sources[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const auto hop = rng.uniform_int(0, 2);
    const bool alternate_hops = rng.uniform_int(0, 2) == 0;
    const auto burst = rng.uniform_int(1, 6);
    for (std::int64_t b = 0; b < burst && static_cast<int>(stream.size()) < count; ++b) {
      t += 0.25;
      const auto first_hop =
          hops[static_cast<std::size_t>(alternate_hops ? (hop + b) % 3 : hop)];
      stream.push_back(make_obs(prefix, {9, first_hop, origin}, source, t));
    }
  }
  return stream;
}

void expect_same_alert(const HijackAlert& a, const HijackAlert& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.owned_prefix, b.owned_prefix);
  EXPECT_EQ(a.observed_prefix, b.observed_prefix);
  EXPECT_EQ(a.offender, b.offender);
  EXPECT_EQ(a.observed_path.to_string(), b.observed_path.to_string());
  EXPECT_EQ(a.vantage, b.vantage);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.detected_at, b.detected_at);
}

// ---------------------------------------------------------------- SpscRing

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  SpscRing<int> tiny(1);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscRingTest, FifoOrderAndWraparound) {
  SpscRing<int> ring(4);  // capacity 4
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(round * 4 + i));
    EXPECT_FALSE(ring.try_push(999));  // full
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 4 + i);
    }
    EXPECT_FALSE(ring.try_pop(out));  // empty
  }
}

TEST(SpscRingTest, CrossThreadTransferPreservesSequence) {
  SpscRing<int> ring(64);
  constexpr int kCount = 100000;
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    int value = 0;
    while (static_cast<int>(received.size()) < kCount) {
      if (ring.try_pop(value)) {
        received.push_back(value);
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kCount; ++i) {
    while (!ring.try_push(int{i})) std::this_thread::yield();
  }
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[i], i);
}

// --------------------------------------------------------- ObservationBatch

TEST(ObservationBatchTest, ClearRetainsElementsForReuse) {
  ObservationBatch batch;
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  batch.push_back(make_obs("10.0.1.0/24", {9, 667}, "bgpmon", 101));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.view().size(), 2u);
  const feeds::Observation* slot0 = &batch[0];
  batch.clear();
  EXPECT_TRUE(batch.empty());
  // emplace_back after clear hands back the same storage.
  EXPECT_EQ(&batch.emplace_back(), slot0);
  EXPECT_EQ(batch.size(), 1u);
}

TEST(ObservationBatchTest, PopBackUndoesEmplace) {
  ObservationBatch batch;
  batch.emplace_back();
  batch.pop_back();
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------------------- batch-vs-loop oracle

/// The batch-vs-loop oracle: `stream` fed through process() one by one
/// must equal process_batch at every chunk size, pathological ones
/// included (1, prime, larger than the stream), in counters, alerts,
/// per-alert observation counts and per-source first-seen times. Runs
/// with fake-first-hop detection off and on: the classification memo
/// keys on the first hop, and only that option lets the hop decide.
void expect_batch_equals_loop(const Config& config, DetectionOptions options,
                              const std::vector<Observation>& stream) {
  for (const bool fake_first_hop : {false, true}) {
    SCOPED_TRACE(fake_first_hop ? "fake-first-hop on" : "fake-first-hop off");
    options.detect_fake_first_hop = fake_first_hop;
    DetectionService loop_service(config, options);
    for (const auto& obs : stream) loop_service.process(obs);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                    std::size_t{997}, stream.size() + 1}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk));
      DetectionService batch_service(config, options);
      for (std::size_t i = 0; i < stream.size(); i += chunk) {
        const std::size_t n = std::min(chunk, stream.size() - i);
        batch_service.process_batch({stream.data() + i, n});
      }
      EXPECT_EQ(batch_service.observations_processed(),
                loop_service.observations_processed());
      EXPECT_EQ(batch_service.observations_matched(),
                loop_service.observations_matched());
      ASSERT_EQ(batch_service.alerts().size(), loop_service.alerts().size());
      for (std::size_t i = 0; i < loop_service.alerts().size(); ++i) {
        expect_same_alert(batch_service.alerts()[i], loop_service.alerts()[i]);
        const AlertKey key = loop_service.alerts()[i].key();
        EXPECT_EQ(batch_service.observation_count(key),
                  loop_service.observation_count(key));
        const auto* loop_seen = loop_service.first_seen_by_source(key);
        const auto* batch_seen = batch_service.first_seen_by_source(key);
        ASSERT_NE(loop_seen, nullptr);
        ASSERT_NE(batch_seen, nullptr);
        EXPECT_EQ(*loop_seen, *batch_seen);
      }
    }
  }
}

TEST(PipelineOracleTest, ProcessBatchEqualsRepeatedProcess) {
  const Config config = make_config();
  const auto stream = scenario_stream(42, 3000);
  expect_batch_equals_loop(config, {}, stream);

  // The stream reaches the first-hop check: with the option on, the
  // owned prefix with configured neighbours raises such alerts.
  DetectionOptions options;
  options.detect_fake_first_hop = true;
  DetectionService service(config, options);
  service.process_batch(stream);
  EXPECT_TRUE(std::any_of(service.alerts().begin(), service.alerts().end(),
                          [](const HijackAlert& alert) {
                            return alert.type == core::HijackType::kFakeFirstHop;
                          }));
}

TEST(PipelineOracleTest, MemoizationRespectsTypeAndPathChanges) {
  // Adjacent observations that differ ONLY in type / origin / first hop
  // must not reuse a stale classification.
  const Config config = make_config();
  DetectionService service(config);
  std::vector<Observation> batch;
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));    // hijack
  batch.push_back(make_obs("10.0.0.0/23", {9, 65001}, "ris-live", 101));  // legit
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 102));    // hijack again
  batch.push_back(make_obs("10.0.0.0/23", {9, 667}, "ris-live", 103));    // new offender
  batch.push_back(make_obs("10.0.0.0/23", {9, 667}, "ris-live", 104,
                           ObservationType::kWithdrawal));                // withdrawal
  service.process_batch(batch);
  EXPECT_EQ(service.alerts().size(), 2u);  // offenders 666 and 667
  EXPECT_EQ(service.observations_matched(), 3u);
  EXPECT_EQ(service.observations_processed(), 5u);
}

TEST(PipelineOracleTest, AllIrrelevantBatchCountsEverything) {
  const Config config = make_config();
  std::vector<Observation> stream;
  for (int i = 0; i < 64; ++i) {  // no overlap with owned space at all
    stream.push_back(make_obs("203.0.113.0/24", {9, 3356, 666}, "ris-live",
                              100.0 + i));
  }
  DetectionService service(config);
  service.process_batch(stream);
  EXPECT_EQ(service.observations_processed(), 64u);  // unmatched != uncounted
  EXPECT_EQ(service.observations_matched(), 0u);
  EXPECT_TRUE(service.alerts().empty());
  expect_batch_equals_loop(config, {}, stream);
}

TEST(PipelineOracleTest, MixedBatchWithWithdrawalsAndSubprefixes) {
  const Config config = make_config();
  auto stream = scenario_stream(21, 500);
  // Withdrawals never classify, even when their prefix overlaps owned
  // space and they sit between announcements of the same prefix.
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    stream[i].type = ObservationType::kWithdrawal;
    stream[i].attrs = {};
  }
  expect_batch_equals_loop(config, {}, stream);
}

TEST(PipelineOracleTest, RoaTableAlertsOutsideOwnedSpace) {
  // With a ROA table, observations outside owned space can still raise
  // kRpkiInvalid.
  const Config config = make_config();
  rpki::RoaTable roas;
  roas.add({net::Prefix::must_parse("203.0.113.0/24"), 64500, 0});
  DetectionOptions options;
  options.roa_table = &roas;
  std::vector<Observation> stream;
  for (int i = 0; i < 48; ++i) {
    // Outside owned space, violates the ROA: must alert.
    stream.push_back(make_obs("203.0.113.0/24", {9, 3356, 666}, "ris-live",
                              100.0 + i));
  }
  DetectionService service(config, options);
  service.process_batch(stream);
  EXPECT_GT(service.alerts().size(), 0u);
  expect_batch_equals_loop(config, options, stream);
}

TEST(PipelineOracleTest, LargeOwnedSet) {
  // More than 16 owned prefixes, most of them never announced.
  Config config = make_config();
  for (int i = 0; i < 20; ++i) {
    config.add_owned(net::Prefix::must_parse("172.16." + std::to_string(i) + ".0/24"),
                     {65010});
  }
  expect_batch_equals_loop(config, {}, scenario_stream(23, 400));
}

// ------------------------------------------------------- sharded equivalence

TEST(ShardedDetectorTest, ShardOfIsStableAndInRange) {
  const auto p = net::Prefix::must_parse("10.0.0.0/23");
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    const auto s = ShardedDetector::shard_of(p, n);
    EXPECT_LT(s, n);
    EXPECT_EQ(s, ShardedDetector::shard_of(p, n));
  }
  EXPECT_EQ(ShardedDetector::shard_of(p, 1), 0u);
}

TEST(ShardedDetectorTest, ShardedVsSingleThreadEquivalence) {
  const Config config = make_config();
  const auto stream = scenario_stream(7, 4000);

  // Reference: deterministic single-threaded N=1 mode.
  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);

  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto ref_alerts = reference.merged_alerts();
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
      const AlertKey key = ref_alerts[i].key();
      EXPECT_EQ(other.observation_count(key), reference.observation_count(key));
      const auto* ref_seen = reference.first_seen_by_source(key);
      const auto* other_seen = other.first_seen_by_source(key);
      ASSERT_NE(ref_seen, nullptr);
      ASSERT_NE(other_seen, nullptr);
      EXPECT_EQ(*ref_seen, *other_seen);  // identical per-source first-seen times
    }
  };

  {
    ShardedDetectorOptions options;
    options.shards = 4;
    ShardedDetector inline4(config, options);
    inline4.submit_batch(stream);
    // Observations of one prefix all live in one shard.
    std::uint64_t across = 0;
    for (std::size_t s = 0; s < inline4.shard_count(); ++s) {
      across += inline4.shard(s).observations_processed();
    }
    EXPECT_EQ(across, stream.size());
    check(inline4);
  }
  {
    ShardedDetectorOptions options;
    options.shards = 4;
    options.threaded = true;
    options.queue_capacity = 256;  // small ring: exercises backpressure
    options.drain_batch = 32;
    ShardedDetector threaded4(config, options);
    for (std::size_t i = 0; i < stream.size(); i += 100) {
      threaded4.submit_batch({stream.data() + i, std::min<std::size_t>(100, stream.size() - i)});
    }
    threaded4.flush();
    check(threaded4);
    threaded4.stop();
    check(threaded4);  // stop() must not lose or duplicate anything
  }
  {
    ShardedDetectorOptions options;
    options.shards = 1;
    options.threaded = true;
    ShardedDetector threaded1(config, options);
    threaded1.submit_batch(stream);
    threaded1.flush();
    check(threaded1);
  }
}

TEST(ShardedDetectorTest, AlertHandlersFireOnEveryShard) {
  const Config config = make_config();
  ShardedDetectorOptions options;
  options.shards = 4;
  ShardedDetector detector(config, options);
  std::vector<HijackAlert> seen;
  detector.on_alert([&](const HijackAlert& alert) { seen.push_back(alert); });
  const auto stream = scenario_stream(9, 1000);
  detector.submit_batch(stream);
  EXPECT_EQ(seen.size(), detector.merged_alerts().size());
  EXPECT_GT(seen.size(), 0u);
}

TEST(ShardedDetectorTest, ThreadedLateHandlerRegistrationThrows) {
  const Config config = make_config();
  ShardedDetectorOptions options;
  options.shards = 2;
  options.threaded = true;
  ShardedDetector detector(config, options);
  detector.on_alert([](const HijackAlert&) {});  // before submit: fine
  const Observation obs = make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100);
  detector.submit_batch({&obs, 1});
  // After observations are in flight, registration would race the
  // workers' handler iteration.
  EXPECT_THROW(detector.on_alert([](const HijackAlert&) {}), std::logic_error);
  detector.flush();
}

TEST(ShardedDetectorTest, AttachConsumesHubBatches) {
  const Config config = make_config();
  feeds::MonitorHub hub;
  ShardedDetector detector(config, {});
  detector.attach(hub);
  const auto stream = scenario_stream(11, 500);
  hub.publish_batch(stream);
  EXPECT_EQ(detector.observations_processed(), stream.size());
  EXPECT_EQ(hub.total_observations(), stream.size());
  EXPECT_GT(detector.merged_alerts().size(), 0u);
}

TEST(ShardedDetectorTest, DeterminismMatrixAcrossModesPoliciesAndPinning) {
  // The acceptance matrix: shards {1,4} x {inline,threaded} x wait policy
  // {busy_poll,futex} x {pinned,unpinned} all reproduce the N=1 inline
  // reference bit-for-bit. (Inline dispatch never touches the ring, so
  // policy/pin only multiply the threaded legs.)
  const Config config = make_config();
  const auto stream = scenario_stream(13, 3000);

  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);

  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
    }
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      ShardedDetectorOptions options;
      options.shards = shards;
      ShardedDetector inline_run(config, options);
      inline_run.submit_batch(stream);
      check(inline_run);
    }
    for (const WaitPolicy policy : {WaitPolicy::kBusyPoll, WaitPolicy::kFutex}) {
      for (const bool pin : {false, true}) {
        ShardedDetectorOptions options;
        options.shards = shards;
        options.threaded = true;
        options.wait_policy = policy;
        options.pin_workers = pin;
        options.queue_capacity = 256;  // small ring: exercise backpressure
        options.drain_batch = 32;
        ShardedDetector threaded(config, options);
        // Uneven submit chunks so staged partial batches get published.
        std::size_t i = 0;
        for (std::size_t chunk = 1; i < stream.size(); chunk = chunk % 97 + 13) {
          const std::size_t n = std::min(chunk, stream.size() - i);
          threaded.submit_batch({stream.data() + i, n});
          i += n;
        }
        threaded.flush();
        check(threaded);
        threaded.stop();
        check(threaded);  // stop() must not lose or duplicate anything
      }
    }
  }
}

TEST(ShardedDetectorTest, MetricsDoNotPerturbDeterminismMatrix) {
  // Telemetry is observation-only by contract: re-running the acceptance
  // matrix with a registry wired in must reproduce the metrics-OFF N=1
  // inline reference bit-for-bit — alerts, counts, first-seen — while
  // the merged counters account for every observation and alert.
  const Config config = make_config();
  const auto stream = scenario_stream(13, 3000);

  ShardedDetectorOptions ref_options;  // no registry: the plain baseline
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);

  auto check = [&](ShardedDetector& other,
                   const telemetry::MetricsRegistry& registry) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
    }
    // The merged per-shard cells see the whole stream and every alert,
    // and each alert recorded its detection delay.
    const std::string text = registry.render_prometheus();
    EXPECT_NE(text.find("artemis_detection_observations_total " +
                        std::to_string(stream.size())),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("artemis_detection_alerts_total " +
                        std::to_string(ref_alerts.size())),
              std::string::npos)
        << text;
    const auto delay =
        registry.histogram_snapshot("artemis_detection_delay_seconds");
    EXPECT_EQ(delay.total, ref_alerts.size());
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      telemetry::MetricsRegistry registry;
      ShardedDetectorOptions options;
      options.shards = shards;
      options.metrics = &registry;
      ShardedDetector inline_run(config, options);
      inline_run.submit_batch(stream);
      check(inline_run, registry);
    }
    for (const WaitPolicy policy : {WaitPolicy::kBusyPoll, WaitPolicy::kFutex}) {
      telemetry::MetricsRegistry registry;
      ShardedDetectorOptions options;
      options.shards = shards;
      options.threaded = true;
      options.wait_policy = policy;
      options.metrics = &registry;
      options.queue_capacity = 256;
      options.drain_batch = 32;
      ShardedDetector threaded(config, options);
      std::size_t i = 0;
      for (std::size_t chunk = 1; i < stream.size(); chunk = chunk % 97 + 13) {
        const std::size_t n = std::min(chunk, stream.size() - i);
        threaded.submit_batch({stream.data() + i, n});
        i += n;
      }
      threaded.flush();
      threaded.stop();
      check(threaded, registry);
      // The ring instrumentation saw real traffic in threaded mode.
      const auto publishes =
          registry.render_prometheus().find("artemis_ring_publishes_total 0\n");
      EXPECT_EQ(publishes, std::string::npos);
    }
  }
}

TEST(ShardedDetectorTest, ReloadUnderLoadMatrixIsDeterministic) {
  // Incremental reload mid-stream: swapping the ownership snapshot after
  // K observations must (a) reproduce, at every point of the acceptance
  // matrix, the N=1 inline reference that swaps at the same point, and
  // (b) from the swap on, behave bit-identically to a FRESH run against
  // the final config — no restart, no re-replay, no perturbation of
  // in-flight batches.
  const Config before = make_config();  // v1 single-operator (tenant 0)
  // Final config: dedicated tenants for both prefixes (ids 1 and 2 — a
  // fleet tenant occupies id 0 — so every post-swap alert key is
  // tenant-scoped away from the pre-swap records), plus a newly
  // onboarded prefix that was pure noise before the reload.
  Config after;
  after.add_tenant("fleet");
  const auto acme = after.add_tenant("acme");
  const auto globex = after.add_tenant("globex");
  after.add_owned(acme, net::Prefix::must_parse("10.0.0.0/23"), {65001});
  after.add_owned(globex, net::Prefix::must_parse("192.0.2.0/24"), {65002});
  after.add_owned(acme, net::Prefix::must_parse("203.0.113.0/24"), {65003});
  const auto after_table = after.build_table();

  const auto stream = scenario_stream(29, 3000);
  const std::size_t swap_at = stream.size() / 2;
  const std::span<const Observation> head{stream.data(), swap_at};
  const std::span<const Observation> tail{stream.data() + swap_at,
                                          stream.size() - swap_at};

  // Reference: the trivially correct single-shard inline reload.
  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(before, ref_options);
  reference.submit_batch(head);
  reference.reload(after_table);
  reference.submit_batch(tail);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);
  // The reload demonstrably took effect: the onboarded tenant alerts.
  ASSERT_TRUE(std::any_of(ref_alerts.begin(), ref_alerts.end(),
                          [](const HijackAlert& a) {
                            return a.tenant_name == "acme" &&
                                   a.observed_prefix ==
                                       net::Prefix::must_parse("203.0.113.0/24");
                          }));

  // (b): a fresh detector born on the final config, fed only the tail,
  // must produce exactly the reference's post-swap (tenant != 0) alerts.
  {
    ShardedDetector fresh(after_table, ref_options);
    fresh.submit_batch(tail);
    const auto fresh_alerts = fresh.merged_alerts();
    std::vector<HijackAlert> post_swap;
    for (const auto& alert : ref_alerts) {
      if (alert.tenant != core::kDefaultTenantId) post_swap.push_back(alert);
    }
    ASSERT_EQ(fresh_alerts.size(), post_swap.size());
    for (std::size_t i = 0; i < post_swap.size(); ++i) {
      expect_same_alert(fresh_alerts[i], post_swap[i]);
      EXPECT_EQ(fresh_alerts[i].tenant, post_swap[i].tenant);
      EXPECT_EQ(fresh_alerts[i].tenant_name, post_swap[i].tenant_name);
    }
  }

  // (a): the matrix. Reload fires at the same stream position in every
  // leg; threaded legs submit in uneven chunks so the swap lands with
  // staged partials and in-flight ring batches to drain.
  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
      EXPECT_EQ(other_alerts[i].tenant, ref_alerts[i].tenant);
      EXPECT_EQ(other_alerts[i].tenant_name, ref_alerts[i].tenant_name);
    }
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      ShardedDetectorOptions options;
      options.shards = shards;
      ShardedDetector inline_run(before, options);
      inline_run.submit_batch(head);
      inline_run.reload(after_table);
      EXPECT_EQ(inline_run.ownership().version(), after_table->version());
      inline_run.submit_batch(tail);
      check(inline_run);
    }
    for (const WaitPolicy policy : {WaitPolicy::kBusyPoll, WaitPolicy::kFutex}) {
      ShardedDetectorOptions options;
      options.shards = shards;
      options.threaded = true;
      options.wait_policy = policy;
      options.queue_capacity = 256;
      options.drain_batch = 32;
      ShardedDetector threaded(before, options);
      const auto feed = [&](std::span<const Observation> part) {
        std::size_t i = 0;
        for (std::size_t chunk = 1; i < part.size(); chunk = chunk % 97 + 13) {
          const std::size_t n = std::min(chunk, part.size() - i);
          threaded.submit_batch(part.subspan(i, n));
          i += n;
        }
      };
      feed(head);
      threaded.reload(after_table);  // drains in-flight, then swaps
      feed(tail);
      threaded.flush();
      check(threaded);
      threaded.stop();
      check(threaded);
    }
  }
}

TEST(ShardedDetectorTest, ReloadFromNonProducerThreadThrows) {
  const Config config = make_config();
  ShardedDetectorOptions options;
  options.shards = 2;
  options.threaded = true;
  ShardedDetector detector(config, options);
  const Observation obs = make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100);
  detector.submit_batch({&obs, 1});
  const auto table = config.build_table();
  std::exception_ptr thrown;
  std::thread([&] {
    try {
      detector.reload(table);
    } catch (...) {
      thrown = std::current_exception();
    }
  }).join();
  EXPECT_TRUE(thrown != nullptr);
  detector.flush();
  detector.stop();
}

TEST(ShardedDetectorTest, FlushFromNonProducerThreadThrows) {
  // flush() waits for the workers by spinning on the producer's own
  // counters; calling it from a second thread would race the (single)
  // producer contract, so it must refuse loudly instead of corrupting.
  const Config config = make_config();
  ShardedDetectorOptions options;
  options.shards = 2;
  options.threaded = true;
  ShardedDetector detector(config, options);
  const Observation obs = make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100);
  detector.submit_batch({&obs, 1});
  std::thread other([&] {
    EXPECT_THROW(detector.flush(), std::logic_error);
  });
  other.join();
  detector.flush();  // the producer thread itself is still allowed
  EXPECT_EQ(detector.observations_processed(), 1u);
}

// ------------------------------------------------------------- hub batching

TEST(MonitorHubBatchTest, MixedSourceBatchesSplitPerSourceCounts) {
  feeds::MonitorHub hub;
  std::size_t batch_total = 0;
  std::size_t batch_calls = 0;
  hub.subscribe_batch([&](std::span<const Observation> batch) {
    ++batch_calls;
    batch_total += batch.size();
  });

  std::vector<Observation> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
  }
  for (int i = 0; i < 3; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "bgpmon", 110 + i));
  }
  hub.publish_batch(batch);
  hub.batch_inlet()(batch);

  EXPECT_EQ(batch_calls, 2u);
  EXPECT_EQ(batch_total, 16u);
  EXPECT_EQ(hub.total_observations(), 16u);
  // Mixed-source batch: the run-length accounting still splits correctly.
  EXPECT_EQ(hub.source_count("ris-live"), 10u);
  EXPECT_EQ(hub.source_count("bgpmon"), 6u);
  EXPECT_EQ(hub.source_count("never-seen"), 0u);
  EXPECT_EQ(hub.per_source_counts().at("ris-live"), 10u);
  EXPECT_EQ(hub.source_table_size(), 2u);
}

TEST(MonitorHubBatchTest, InternKeepsIdsStableAcrossInsertionOrder) {
  feeds::MonitorHub hub;
  // Interleave names that sort in the opposite order of first sight.
  for (const char* name : {"zebra", "alpha", "zebra", "mid", "alpha", "zebra"}) {
    Observation obs;
    obs.source = name;
    hub.publish_batch({&obs, 1});
  }
  EXPECT_EQ(hub.source_count("zebra"), 3u);
  EXPECT_EQ(hub.source_count("alpha"), 2u);
  EXPECT_EQ(hub.source_count("mid"), 1u);
  const auto map = hub.per_source_counts();
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.begin()->first, "alpha");  // map-shaped accessor sorts
}

}  // namespace
}  // namespace artemis::pipeline
