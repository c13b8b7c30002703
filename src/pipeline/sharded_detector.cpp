#include "pipeline/sharded_detector.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <tuple>

#include "util/affinity.hpp"

namespace artemis::pipeline {

ShardedDetector::Shard::Shard(std::shared_ptr<const core::OwnershipTable> table,
                              const ShardedDetectorOptions& options)
    : service(std::move(table), options.detection) {
  if (options.threaded) {
    // queue_capacity is an observation budget; the ring holds it as
    // drain_batch-sized slots.
    const std::size_t depth =
        std::max<std::size_t>(2, options.queue_capacity / options.drain_batch);
    ring = std::make_unique<BatchRing>(depth, options.drain_batch,
                                       options.wait_policy);
  }
}

ShardedDetector::ShardedDetector(std::shared_ptr<const core::OwnershipTable> table,
                                 ShardedDetectorOptions options)
    : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.drain_batch == 0) options_.drain_batch = 1;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(table, options_));
  }
  if (options_.metrics != nullptr) {
    // One cell bundle per shard: private cache lines on the hot path,
    // merged on read by the registry — the same shape as the detector's
    // own merged-on-read stats. Registered before workers start, so the
    // cells are immutable wiring by the time any thread runs.
    // (Per-tenant cells are the exception: set_ownership re-registers
    // them at reload time, which is a drained quiescent point.)
    metrics_ = telemetry::register_pipeline(*options_.metrics);
    for (auto& shard : shards_) {
      shard->service.set_metrics(telemetry::register_detection(*options_.metrics));
      shard->service.set_tenant_metrics(options_.metrics);
      if (shard->ring != nullptr) {
        shard->ring->set_metrics(telemetry::register_ring(*options_.metrics));
      }
    }
  }
  if (options_.threaded) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard* s = shards_[i].get();
      shards_[i]->worker = std::thread([this, s, i] { worker_loop(*s, i); });
    }
  }
}

ShardedDetector::ShardedDetector(const core::Config& config,
                                 ShardedDetectorOptions options)
    : ShardedDetector(config.build_table(), options) {}

ShardedDetector::~ShardedDetector() { stop(); }

std::size_t ShardedDetector::shard_of(const net::Prefix& prefix,
                                      std::size_t shard_count) {
  return std::hash<net::Prefix>{}(prefix) % shard_count;
}

void ShardedDetector::note_producer_thread() {
  // Relaxed everywhere: this is a debugging guard on the single-producer
  // contract, not a synchronization point.
  if (producer_thread_.load(std::memory_order_relaxed) == std::thread::id{}) {
    std::thread::id expected{};
    producer_thread_.compare_exchange_strong(expected,
                                             std::this_thread::get_id(),
                                             std::memory_order_relaxed);
  }
}

void ShardedDetector::stage(const feeds::Observation& obs) {
  Shard& shard = *shards_[shard_of(obs.prefix, shards_.size())];
  if (shard.staging == nullptr) {
    // Blocks per wait_policy when every slot is in flight — this is the
    // backpressure point; nothing is ever dropped.
    shard.staging = shard.ring->acquire();
  }
  // Copy-assign into the slot's recycled element: the one and only copy
  // an observation makes on its way to a worker (the worker processes
  // the batch in place).
  shard.staging->emplace_back() = obs;
  ++shard.pushed;
  if (shard.staging->size() == options_.drain_batch) {
    shard.ring->publish(shard.staging);
    shard.staging = nullptr;
  }
}

void ShardedDetector::publish_staged() {
  for (auto& shard : shards_) {
    if (shard->staging != nullptr && !shard->staging->empty()) {
      shard->ring->publish(shard->staging);
      shard->staging = nullptr;
    }
  }
}

void ShardedDetector::submit_batch(std::span<const feeds::Observation> batch) {
  if (!options_.threaded) {
    if (shards_.size() == 1) {
      shards_[0]->service.process_batch(batch);
      return;
    }
    // Inline multi-shard: hand each maximal same-shard run to its shard
    // as a zero-copy sub-span, so the batch amortization (classification
    // and dedup memoization) survives the partitioning on the bursty
    // streams feeds actually produce (a run of one route is a run of one
    // shard). Worst case (fully interleaved shards) degrades to
    // span-of-one calls — the same cost as per-observation dispatch,
    // still without copying. Per-shard observation order equals
    // submission order, so output is identical to any other dispatch.
    std::size_t i = 0;
    while (i < batch.size()) {
      const std::size_t target = shard_of(batch[i].prefix, shards_.size());
      std::size_t j = i + 1;
      while (j < batch.size() &&
             shard_of(batch[j].prefix, shards_.size()) == target) {
        ++j;
      }
      shards_[target]->service.process_batch(batch.subspan(i, j - i));
      i = j;
    }
    return;
  }
  // Threaded: scatter the whole span into per-shard staging batches in
  // one pass, then publish the partials. Ring traffic is one publish per
  // full drain_batch plus at most one partial per shard per call —
  // versus one push per observation before.
  note_producer_thread();
  for (const auto& obs : batch) stage(obs);
  publish_staged();
}

void ShardedDetector::attach(feeds::MonitorHub& hub) {
  hub.subscribe_batch(
      [this](std::span<const feeds::Observation> batch) { submit_batch(batch); });
}

void ShardedDetector::on_alert(core::AlertHandler handler) {
  if (options_.threaded) {
    // The handler list is read by worker threads inside process_batch;
    // mutating it after observations are in flight would race with that
    // iteration. Registration is construction-time wiring — enforce it.
    for (const auto& shard : shards_) {
      if (shard->pushed != 0) {
        throw std::logic_error(
            "ShardedDetector::on_alert: register handlers before the first "
            "submit in threaded mode");
      }
    }
  }
  for (auto& shard : shards_) shard->service.on_alert(handler);
}

void ShardedDetector::flush() {
  if (!options_.threaded) return;
  // flush() reads `pushed` and publishes staging batches — both owned by
  // the producer thread. Anyone else calling it would race the producer.
  const std::thread::id producer = producer_thread_.load(std::memory_order_relaxed);
  if (producer != std::thread::id{} && producer != std::this_thread::get_id()) {
    throw std::logic_error(
        "ShardedDetector::flush: must be called from the producer thread");
  }
  publish_staged();
  bool stalled = false;
  for (auto& shard : shards_) {
    // Escalating wait: pause (the worker is usually a few hundred ns
    // away), yield (give a same-core worker the CPU), then sleep — a
    // descheduled worker on an oversubscribed host must not cost the
    // flusher a core.
    int spins = 0;
    while (shard->drained.load(std::memory_order_acquire) < shard->pushed) {
      stalled = true;
      ++spins;
      if (spins < 64) {
        cpu_pause();
      } else if (spins < 4096) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  if (stalled && metrics_.flush_stalls != nullptr) metrics_.flush_stalls->add();
}

void ShardedDetector::reload(std::shared_ptr<const core::OwnershipTable> table) {
  if (table == nullptr) {
    throw std::invalid_argument("ShardedDetector::reload: null table");
  }
  // flush() is the whole synchronization story: producer-thread guard,
  // publish staged partials, wait per shard for drained == pushed. Once
  // it returns, every worker has finished its last batch (its `drained`
  // release is our acquire) and is parked in take(), so each shard's
  // service is quiescent and the swap is a plain producer-side write.
  // The next ring publish (release) hands workers the new table.
  flush();
  for (auto& shard : shards_) shard->service.set_ownership(table);
}

void ShardedDetector::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!options_.threaded) return;
  // Publish partials first: every staged observation must reach its
  // worker. The publishes happen-before the stopping store, and take()
  // re-checks the ring after observing the flag, so nothing is stranded.
  publish_staged();
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->ring->wake_consumer();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedDetector::worker_loop(Shard& shard, std::size_t index) {
  if (options_.pin_workers) {
    // Best effort: a refused affinity call (cgroup mask, non-Linux) just
    // leaves the worker floating.
    util::pin_current_thread_to_cpu(
        (options_.pin_cpu_base + static_cast<unsigned>(index)) %
        util::cpu_count());
  }
  for (;;) {
    ObservationBatch* batch = shard.ring->take(stopping_);
    if (batch == nullptr) return;  // stop observed AND ring re-checked empty
    shard.service.process_batch(batch->view());
    const std::size_t n = batch->size();
    shard.ring->release(batch);
    shard.drained.fetch_add(n, std::memory_order_release);
  }
}

std::vector<core::HijackAlert> ShardedDetector::merged_alerts() const {
  std::vector<core::HijackAlert> out;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->service.alerts().size();
  out.reserve(total);
  for (const auto& shard : shards_) {
    const auto& alerts = shard->service.alerts();
    out.insert(out.end(), alerts.begin(), alerts.end());
  }
  std::sort(out.begin(), out.end(),
            [](const core::HijackAlert& a, const core::HijackAlert& b) {
              return std::tuple(a.detected_at.as_micros(), a.type,
                                a.observed_prefix, a.offender, a.tenant) <
                     std::tuple(b.detected_at.as_micros(), b.type,
                                b.observed_prefix, b.offender, b.tenant);
            });
  return out;
}

std::uint64_t ShardedDetector::observations_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->service.observations_processed();
  return total;
}

std::uint64_t ShardedDetector::observations_matched() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->service.observations_matched();
  return total;
}

std::uint64_t ShardedDetector::observation_count(const core::AlertKey& key) const {
  return shards_[shard_of(key.observed_prefix, shards_.size())]
      ->service.observation_count(key);
}

const std::unordered_map<std::string, SimTime>* ShardedDetector::first_seen_by_source(
    const core::AlertKey& key) const {
  return shards_[shard_of(key.observed_prefix, shards_.size())]
      ->service.first_seen_by_source(key);
}

}  // namespace artemis::pipeline
