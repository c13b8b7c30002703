// Asserts the detection hot path's zero-allocation invariant: once a
// hijack has been seen (its record exists), re-processing matching or
// non-matching observations performs no heap allocations at all — via
// process(), process_batch(), the MonitorHub batch fan-out, the sharded
// pipeline's inline dispatch, and the journal writer tap (recording to
// disk while detecting).
//
// The assertion works by replacing the global operator new/delete with
// counting wrappers, which is why this test lives in its own binary (see
// CMakeLists.txt): the counter must not be perturbed by unrelated suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "ingest/pipeline.hpp"
#include "journal/writer.hpp"
#include "mrt/observation_convert.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/metrics.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace artemis::core {
namespace {

feeds::Observation make_obs(std::string_view prefix, std::vector<bgp::Asn> path,
                            std::string source, double at_seconds) {
  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.source = std::move(source);
  obs.vantage = 9;
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath(std::move(path));
  obs.event_time = SimTime::at_seconds(at_seconds - 5);
  obs.delivered_at = SimTime::at_seconds(at_seconds);
  return obs;
}

TEST(DetectionAllocTest, SteadyStateProcessIsAllocationFree) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);

  // One observation per flavor the steady state must absorb for free:
  // an already-alerted hijack (exact and sub-prefix), a legitimate
  // announcement, and an unrelated prefix.
  const auto hijack = make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100);
  const auto subhijack = make_obs("10.0.1.0/24", {9, 666}, "ris-live", 101);
  const auto legit = make_obs("10.0.0.0/23", {9, 100, 65001}, "ris-live", 102);
  const auto unrelated = make_obs("203.0.113.0/24", {9, 666}, "ris-live", 103);

  // Prime: first sightings may allocate (records, alert copies, keys).
  detector.process(hijack);
  detector.process(subhijack);
  detector.process(legit);
  detector.process(unrelated);
  ASSERT_EQ(detector.alerts().size(), 2u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    detector.process(hijack);
    detector.process(subhijack);
    detector.process(legit);
    detector.process(unrelated);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state DetectionService::process allocated";

  // Dedup bookkeeping kept counting while staying allocation-free.
  EXPECT_EQ(detector.observation_count(detector.alerts()[0].key()), 10001u);
  EXPECT_EQ(detector.alerts().size(), 2u);
}

TEST(DetectionAllocTest, NewSourceAllocatesOnlyOnFirstSighting) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);

  const auto from_a = make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100);
  const auto from_b = make_obs("10.0.0.0/23", {8, 666}, "bgpmon", 104);
  detector.process(from_a);
  detector.process(from_b);  // new source: records its first-seen slot

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  detector.process(from_b);
  detector.process(from_a);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);

  const auto* by_source = detector.first_seen_by_source(detector.alerts()[0].key());
  ASSERT_NE(by_source, nullptr);
  EXPECT_EQ(by_source->at("ris-live"), SimTime::at_seconds(100));
  EXPECT_EQ(by_source->at("bgpmon"), SimTime::at_seconds(104));
}

TEST(DetectionAllocTest, SteadyStateProcessBatchIsAllocationFree) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);

  // A batch mixing every steady-state flavor, with bursty repeats so the
  // classification/dedup memoization paths are exercised too.
  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  }
  batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 101));
  batch.push_back(make_obs("10.0.0.0/23", {9, 100, 65001}, "ris-live", 102));
  for (int i = 0; i < 3; ++i) {
    batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "ris-live", 103));
  }

  // Prime: first sightings may allocate (records, alert copies, keys).
  detector.process_batch(batch);
  ASSERT_EQ(detector.alerts().size(), 2u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) detector.process_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state DetectionService::process_batch allocated";

  EXPECT_EQ(detector.observation_count(detector.alerts()[0].key()), 4u * 10001u);
  EXPECT_EQ(detector.observations_processed(), 9u * 10001u);
}

TEST(DetectionAllocTest, OwnershipSwapKeepsSteadyStateAllocationFree) {
  // The incremental-reload contract: building the new table allocates
  // (cold path, outside the measured window), but the swap itself —
  // set_ownership — and every batch processed after it stay allocation-
  // free. A reload must not tax the hot path it slides under.
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);

  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  }
  batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 101));
  batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "ris-live", 102));
  detector.process_batch(batch);  // prime the dedup records
  ASSERT_EQ(detector.alerts().size(), 2u);

  // Cold: freeze the replacement snapshot (same logical config, so the
  // post-swap stream dedups against the surviving records).
  auto replacement = config.build_table();
  const auto replacement_version = replacement->version();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  detector.set_ownership(std::move(replacement));
  for (int i = 0; i < 10000; ++i) detector.process_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "ownership swap or post-swap steady state allocated";

  EXPECT_EQ(detector.ownership().version(), replacement_version);
  EXPECT_EQ(detector.alerts().size(), 2u);  // dedup state survived the swap
  EXPECT_EQ(detector.observation_count(detector.alerts()[0].key()), 4u * 10001u);
}

TEST(DetectionAllocTest, SteadyStateHubBatchFanOutIsAllocationFree) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);
  feeds::MonitorHub hub;
  detector.attach(hub);

  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
  }
  hub.publish_batch(batch);  // prime: interns "ris-live", creates the record

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) hub.publish_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state MonitorHub::publish_batch allocated";
  EXPECT_EQ(hub.total_observations(), 8u * 10001u);
  EXPECT_EQ(hub.source_count("ris-live"), 8u * 10001u);
}

TEST(DetectionAllocTest, SteadyStateJournalTapIsAllocationFree) {
  // Recording must not tax the hot path: with a JournalWriter tapped into
  // the hub, steady-state publish_batch (detection + on-disk append)
  // still performs zero heap allocations. The writer's encode buffer and
  // interned source table reach their high-water marks during priming;
  // after that every batch is varint-encoded into recycled storage and
  // handed to write(2).
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);
  feeds::MonitorHub hub;
  detector.attach(hub);

  const std::string dir = ::testing::TempDir() + "artemis_journal_alloc_tap";
  std::filesystem::remove_all(dir);
  journal::JournalWriter writer(dir);
  writer.attach(hub);

  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
  }
  for (int i = 0; i < 4; ++i) {
    batch.push_back(make_obs("203.0.113.0/24", {9, 667}, "bgpmon", 104 + i));
  }
  hub.publish_batch(batch);  // prime: interns sources, creates the record

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) hub.publish_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state journal tap (hub publish_batch + writer append) allocated";

  writer.close();
  EXPECT_EQ(writer.records_written(), 8u * 10001u);
  EXPECT_GT(writer.bytes_written(), 0u);
  EXPECT_EQ(hub.total_observations(), 8u * 10001u);
}

TEST(DetectionAllocTest, SteadyStateMrtImportIsAllocationFree) {
  // The archive import hot path: MRT bytes -> ObservationConverter ->
  // JournalWriter tap. After one priming pass (sources interned, batch
  // and scratch buffers at capacity, encoder warmed) re-converting a
  // window performs zero heap allocations — the line-rate contract for
  // mrt2journal.
  std::vector<std::uint8_t> window;
  {
    auto record = [](bgp::Asn peer, double t, const char* announced,
                     std::vector<bgp::Asn> path, const char* withdrawn = nullptr) {
      mrt::UpdateRecord rec;
      rec.peer_asn = peer;
      rec.peer_ip = net::IpAddress::v4(0x0A000000 | peer);
      rec.timestamp = SimTime::at_seconds(t);
      rec.update.sender = peer;
      if (announced != nullptr) {
        rec.update.announced.push_back(net::Prefix::must_parse(announced));
      }
      if (withdrawn != nullptr) {
        rec.update.withdrawn.push_back(net::Prefix::must_parse(withdrawn));
      }
      rec.update.attrs.as_path = bgp::AsPath(std::move(path));
      return mrt::encode_update_record(rec);
    };
    for (int i = 0; i < 8; ++i) {
      const auto bytes =
          record(9, 100 + i, "10.0.0.0/23", {9, 3356, 666}, "203.0.113.0/24");
      window.insert(window.end(), bytes.begin(), bytes.end());
      const auto more = record(8, 100 + i, "10.0.1.0/24", {8, 1299, 65001});
      window.insert(window.end(), more.begin(), more.end());
      // Dual-stack record: the MP_REACH/MP_UNREACH decode path (v6 NLRI
      // staged through MpNlriScratch) is part of the same contract.
      const auto v6 =
          record(9, 100 + i, "2001:db8::/32", {9, 3356, 667}, "2001:db8:dead::/48");
      window.insert(window.end(), v6.begin(), v6.end());
    }
  }

  const std::string dir = ::testing::TempDir() + "artemis_mrt_import_alloc";
  std::filesystem::remove_all(dir);
  journal::JournalWriter writer(dir);
  mrt::ObservationConverter converter;
  const feeds::ObservationBatchHandler sink = writer.tap();

  // Prime: interns the two peer sources, grows batch/scratch capacity.
  const auto primed = converter.convert_file(window, sink);
  ASSERT_TRUE(primed.clean());
  // 8 x (2 elems) + 8 x (1 elem) + 8 x (2 v6 elems via MP attributes).
  ASSERT_EQ(primed.observations, 40u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const auto stats = converter.convert_file(window, sink);
    if (!stats.clean() || stats.observations != 40u) {
      FAIL() << "conversion changed shape mid-loop";
    }
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state MRT convert -> journal append allocated";

  writer.close();
  EXPECT_EQ(converter.observations_emitted(), 40u * 1001u);
  EXPECT_EQ(writer.records_written(), 40u * 1001u);
}

TEST(DetectionAllocTest, SteadyStateIngestFeedIsAllocationFree) {
  // The always-on supervisor's inner loop: HTTP body chunks ->
  // IngestPipeline (sniff, decompress, convert, lag check) ->
  // JournalWriter. One source cycle primes every buffer (converter
  // carry/batch, writer encode buffer, interned sources, the cached
  // identity decompressor); after that, whole begin/feed/finish cycles
  // run without a single heap allocation — the service can ingest
  // archives forever without touching the allocator. Every read is
  // followed by idle(), as on a socket that has drained: the partial-
  // batch flush a quiet live feed takes is inside the same contract.
  std::vector<std::uint8_t> window;
  for (int i = 0; i < 8; ++i) {
    mrt::UpdateRecord rec;
    rec.peer_asn = 9;
    rec.peer_ip = net::IpAddress::v4(0x0A000009);
    rec.timestamp = SimTime::at_seconds(100 + i);
    rec.update.sender = 9;
    rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/23"));
    rec.update.attrs.as_path = bgp::AsPath({9, 3356, 666});
    const auto bytes = mrt::encode_update_record(rec);
    window.insert(window.end(), bytes.begin(), bytes.end());
  }

  const std::string dir = ::testing::TempDir() + "artemis_ingest_alloc";
  std::filesystem::remove_all(dir);
  journal::JournalWriter writer(dir);
  ingest::IngestPipeline pipeline(writer);

  const auto run_cycle = [&] {
    pipeline.begin_source();
    // Awkward chunk sizes: one smaller than the sniff stash, the rest
    // mid-record, like socket reads.
    std::size_t i = 0;
    for (const std::size_t step : {std::size_t{3}, std::size_t{41}}) {
      pipeline.feed({window.data() + i, step});
      pipeline.idle();
      i += step;
    }
    pipeline.feed({window.data() + i, window.size() - i});
    pipeline.idle();
    return pipeline.finish_source();
  };

  const auto primed = run_cycle();
  ASSERT_TRUE(primed.convert.clean());
  ASSERT_EQ(primed.observations_journaled, 8u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const auto stats = run_cycle();
    if (!stats.convert.clean() || stats.observations_journaled != 8u) {
      FAIL() << "ingest feed changed shape mid-loop";
    }
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state ingest pipeline feed -> journal append allocated";

  writer.close();
  EXPECT_EQ(writer.records_written(), 8u * 1001u);
}

TEST(DetectionAllocTest, SteadyStateShardedInlineSubmitIsAllocationFree) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  pipeline::ShardedDetectorOptions options;
  options.shards = 4;  // inline dispatch across partitioned dedup maps
  pipeline::ShardedDetector detector(config, options);

  std::vector<feeds::Observation> batch;
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 101));
  batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "ris-live", 102));
  detector.submit_batch(batch);  // prime

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) detector.submit_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state ShardedDetector inline submit_batch allocated";
  EXPECT_EQ(detector.observations_processed(), 3u * 10001u);
}

TEST(DetectionAllocTest, SteadyStateThreadedBatchRingIsAllocationFree) {
  // The threaded handoff's whole point: after one warm-up lap of the
  // BatchRing pool (slots acquire their element buffers, detection
  // records exist), submit_batch -> ring scatter -> worker drain ->
  // flush cycles allocate NOTHING on either side of the ring, under both
  // wait policies. The counter is global, so this asserts the worker
  // threads' steady state too.
  for (const auto policy :
       {pipeline::WaitPolicy::kBusyPoll, pipeline::WaitPolicy::kFutex}) {
    Config config;
    OwnedPrefix owned;
    owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
    owned.legitimate_origins.insert(65001);
    config.add_owned(std::move(owned));
    pipeline::ShardedDetectorOptions options;
    options.shards = 2;
    options.threaded = true;
    options.wait_policy = policy;
    options.queue_capacity = 64;  // small pool: slots recycle every round
    options.drain_batch = 16;
    pipeline::ShardedDetector detector(config, options);

    std::vector<feeds::Observation> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
      batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 100 + i));
      batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "bgpmon", 100 + i));
    }
    // Prime: several laps so every pool slot has hosted every flavor and
    // each scatter pattern (full + partial published batches) has run.
    for (int i = 0; i < 8; ++i) detector.submit_batch(batch);
    detector.flush();

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
      detector.submit_batch(batch);
      detector.flush();  // barrier: the workers' processing is inside the
                         // measured window, not smeared past it
    }
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state threaded batch-ring handoff allocated (policy="
        << std::string(pipeline::to_string(policy)) << ")";
    detector.stop();
    EXPECT_EQ(detector.observations_processed(), 24u * 1008u);
  }
}

TEST(DetectionAllocTest, InstrumentedProcessBatchIsAllocationFree) {
  // ISSUE 8's zero-allocation telemetry claim, asserted: with a registry
  // wired in (cells registered at startup), the steady-state batch path
  // — counter stores plus the detection-delay histogram machinery —
  // still performs zero heap allocations.
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  DetectionService detector(config);

  telemetry::MetricsRegistry registry;  // registration may allocate: fine
  detector.set_metrics(telemetry::register_detection(registry));

  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  }
  batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 101));
  batch.push_back(make_obs("10.0.0.0/23", {9, 100, 65001}, "ris-live", 102));
  batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "ris-live", 103));

  detector.process_batch(batch);  // prime (first alerts record delays)
  ASSERT_EQ(detector.alerts().size(), 2u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) detector.process_batch(batch);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state instrumented process_batch allocated";

  // The cells kept counting while staying allocation-free.
  const auto snap =
      registry.histogram_snapshot("artemis_detection_delay_seconds");
  EXPECT_EQ(snap.total, 2u);  // one delay sample per (primed) alert
  EXPECT_NE(registry.render_prometheus().find(
                "artemis_detection_observations_total " +
                std::to_string(7u * 10001u)),
            std::string::npos);
}

TEST(DetectionAllocTest, InstrumentedThreadedBatchRingIsAllocationFree) {
  // Same claim across the threaded handoff: per-shard cell bundles and
  // ring counters (publishes, wakeups, occupancy high-water) ride the
  // steady state without touching the allocator, under both policies.
  for (const auto policy :
       {pipeline::WaitPolicy::kBusyPoll, pipeline::WaitPolicy::kFutex}) {
    Config config;
    OwnedPrefix owned;
    owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
    owned.legitimate_origins.insert(65001);
    config.add_owned(std::move(owned));
    telemetry::MetricsRegistry registry;
    pipeline::ShardedDetectorOptions options;
    options.shards = 2;
    options.threaded = true;
    options.wait_policy = policy;
    options.queue_capacity = 64;
    options.drain_batch = 16;
    options.metrics = &registry;
    pipeline::ShardedDetector detector(config, options);

    std::vector<feeds::Observation> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
      batch.push_back(make_obs("10.0.1.0/24", {9, 666}, "ris-live", 100 + i));
      batch.push_back(make_obs("203.0.113.0/24", {9, 666}, "bgpmon", 100 + i));
    }
    for (int i = 0; i < 8; ++i) detector.submit_batch(batch);
    detector.flush();

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
      detector.submit_batch(batch);
      detector.flush();
    }
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state instrumented threaded handoff allocated (policy="
        << std::string(pipeline::to_string(policy)) << ")";
    detector.stop();
    EXPECT_EQ(detector.observations_processed(), 24u * 1008u);
  }
}

}  // namespace
}  // namespace artemis::core
