// Pipeline throughput benchmarks (ROADMAP "Pipeline architecture").
//
// Measures the tiers of the observation path on one realistic workload
// (bursty merged-feed stream, 1-in-16 groups hijack-relevant):
//   * BM_BatchPath/<B>        — hub.publish_batch spans of B into
//                               process_batch: the hub plus detection.
//   * BM_DetectionBatch/<B>   — process_batch alone (no hub), isolating
//                               the detection hot path.
//   * BM_MetricsOverhead      — BM_BatchPath at B=1024 with telemetry off
//                               and on (the <= 5% cost gate).
//   * BM_ShardedInline/<N>    — inline hash dispatch across N shards (the
//                               only inline multi-shard bench).
//   * BM_ShardedThroughput    — N threaded shard workers, both wait
//                               policies; submit_batch + flush per
//                               iteration. Multi-shard scaling.
//   * BM_HandoffBatchRing     — raw BatchRing transfer, no detection.
//   * BM_ShardedThreadedRpki/<N>, BM_InlineRpki — threaded vs inline
//                               with a dense ROA table.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "pipeline/batch_ring.hpp"
#include "pipeline/sharded_detector.hpp"
#include "rpki/roa.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

using namespace artemis;

namespace {

core::Config make_config() {
  core::Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  return config;
}

net::Prefix random_prefix(Rng& rng) {
  return net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                     static_cast<int>(rng.uniform_int(8, 24)));
}

/// The shared workload: 64k observations in bursts of 8 (a collector
/// message / archive window repeats the same route), 1 in 16 bursts
/// touching the owned prefix — the mix a deployed ARTEMIS sees.
const std::vector<feeds::Observation>& workload() {
  static const std::vector<feeds::Observation> stream = [] {
    Rng rng(6);
    std::vector<feeds::Observation> out;
    constexpr int kBursts = 8192;
    constexpr int kBurstLen = 8;
    out.reserve(kBursts * kBurstLen);
    for (int g = 0; g < kBursts; ++g) {
      feeds::Observation obs;
      obs.type = feeds::ObservationType::kAnnouncement;
      obs.source = (g % 3 == 0) ? "ris-live" : (g % 3 == 1) ? "bgpmon" : "periscope";
      obs.vantage = 9;
      obs.prefix = (g % 16 == 0) ? net::Prefix::must_parse("10.0.0.0/23")
                                 : random_prefix(rng);
      obs.attrs.as_path = bgp::AsPath({9, 3356, (g % 16 == 0) ? 666u : 65001u});
      obs.event_time = SimTime::at_seconds(g);
      obs.delivered_at = SimTime::at_seconds(g + 5);
      for (int i = 0; i < kBurstLen; ++i) out.push_back(obs);
    }
    return out;
  }();
  return stream;
}

void BM_BatchPath(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  feeds::MonitorHub hub;
  detector.attach(hub);  // batch subscription
  const auto& stream = workload();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(batch_size, stream.size() - i);
    hub.publish_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_BatchPath)->Arg(64)->Arg(256)->Arg(1024);

void BM_DetectionBatch(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  const auto& stream = workload();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(batch_size, stream.size() - i);
    detector.process_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_DetectionBatch)->Arg(64)->Arg(256)->Arg(1024);

/// The telemetry cost gate (ISSUE 8): BM_BatchPath's exact hub->detection
/// workload at B=1024, with metrics:0 = bare and metrics:1 = a registry
/// wired into the detection service (counters + the detection-delay
/// histogram fed from batch-local tallies). The acceptance bar: the
/// metrics:1 leg stays within 5% of metrics:0 items/s — roughly one
/// relaxed store per counter per batch, nothing per observation.
void BM_MetricsOverhead(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  telemetry::MetricsRegistry registry;
  if (state.range(0) != 0) {
    detector.set_metrics(telemetry::register_detection(registry));
  }
  feeds::MonitorHub hub;
  if (state.range(0) != 0) hub.set_metrics(&registry);
  detector.attach(hub);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    hub.publish_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MetricsOverhead)->ArgNames({"metrics"})->Arg(0)->Arg(1);

void BM_ShardedInline(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    detector.submit_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ShardedInline)->Arg(1)->Arg(2)->Arg(4);

/// The acceptance bench for the batch-granular handoff: N shard workers
/// draining BatchRings, full workload fan-out + flush per iteration, under
/// both wait policies (futex:0 = busy_poll, futex:1 = std::atomic::wait).
/// The scaling bar — threads:4 >= 2x threads:1 items/s — holds on a
/// >= 4-core runner; a 1-CPU container serializes the workers and this
/// bench then measures handoff overhead instead of scaling.
void BM_ShardedThroughput(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = true;
  options.queue_capacity = 1024;
  options.drain_batch = 128;
  options.wait_policy = state.range(1) != 0 ? pipeline::WaitPolicy::kFutex
                                            : pipeline::WaitPolicy::kBusyPoll;
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kChunk = 1024;
  for (auto _ : state) {
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      detector.submit_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    detector.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedThroughput)
    ->ArgNames({"threads", "futex"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->UseRealTime();

// ---- handoff micro-bench ---------------------------------------------------
//
// Pure cross-thread transfer cost, no detection work: the batch-granular
// BatchRing (one release store per ~128 observations, observations
// copy-assigned into recycled slots). Consumer-side waits yield so the
// number stays meaningful on a single-CPU runner.

void BM_HandoffBatchRing(benchmark::State& state) {
  pipeline::BatchRing ring(8, 128);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    for (;;) {
      pipeline::ObservationBatch* batch = ring.take(stop);
      if (batch == nullptr) return;
      drained.fetch_add(batch->size(), std::memory_order_release);
      ring.release(batch);
    }
  });
  const auto& stream = workload();
  pipeline::ObservationBatch* staging = nullptr;
  std::uint64_t pushed = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    if (staging == nullptr) staging = ring.acquire();
    staging->emplace_back() = stream[i];
    ++pushed;
    if (staging->size() == ring.batch_capacity()) {
      ring.publish(staging);
      staging = nullptr;
    }
    i = (i + 1) & (stream.size() - 1);
  }
  if (staging != nullptr && !staging->empty()) {
    ring.publish(staging);
    staging = nullptr;
  }
  while (drained.load(std::memory_order_acquire) < pushed) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  ring.wake_consumer();
  consumer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandoffBatchRing)->UseRealTime();

/// A dense ROA table so every out-of-owned-space announcement pays an
/// RPKI origin validation (the realistic "heavy" per-observation cost —
/// this is where sharding starts to pay: the handoff copy is fixed, the
/// per-observation work now dwarfs it and parallelizes).
const rpki::RoaTable& dense_roa_table() {
  static const rpki::RoaTable table = [] {
    Rng rng(7);
    rpki::RoaTable t;
    for (int i = 0; i < 100000; ++i) {
      rpki::Roa roa;
      roa.prefix = net::Prefix(
          net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<int>(rng.uniform_int(8, 20)));
      roa.asn = 65001;  // authorizes the workload's legitimate origin
      roa.max_length = 24;
      t.add(roa);
    }
    return t;
  }();
  return table;
}

void BM_ShardedThreadedRpki(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = true;
  options.queue_capacity = 1024;
  options.drain_batch = 128;
  options.detection.roa_table = &dense_roa_table();
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kChunk = 1024;
  for (auto _ : state) {
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      detector.submit_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    detector.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedThreadedRpki)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_InlineRpki(benchmark::State& state) {
  // Single-thread reference for BM_ShardedThreadedRpki's scaling.
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.detection.roa_table = &dense_roa_table();
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    detector.submit_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InlineRpki);

}  // namespace

BENCHMARK_MAIN();
