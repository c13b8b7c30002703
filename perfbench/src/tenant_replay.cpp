// tenant_replay: a journal replayed the way `journal_alerts --no-prune`
// does it (JournalReader -> ReplayFeed::replay_all -> MonitorHub ->
// ShardedDetector{3 shards, threaded, futex}) against a generated v2
// config of 1,024,000 owned prefixes in 1,000 tenants.
//
// The journal is fixture: it is built from the same generator (MRT
// window -> ObservationConverter -> default JournalWriter, the
// archive_import write path) before anything is timed. The replay repeats
// until --seconds of replay time have passed, each pass with a fresh
// detector sharing the one ownership table, so every pass must raise
// exactly the planted alerts. At the halfway observation of a pass the
// replay sink reloads the ownership config the way artemis_ingest's
// SIGHUP path does: re-parse the text and build_table (on untimed
// reload-sampling passes: that is what reload_s times; timed passes reuse
// the table), then ShardedDetector::reload. The reload adds tenant
// "late", hijacked only in the second half of the journal. The ownership projection into the
// journal filter stays off: with 1M prefixes the per-record linear scan
// would not finish.
//
// The traced run composes ReplayFeed's loop (JournalReader::read_batch ->
// MonitorHub::publish_batch) and subscribes the detector with a span
// around submit_batch; detection itself runs on the shard workers and is
// measured from their on-CPU time.
#include <algorithm>
#include <memory>
#include <span>

#include "artemis/config.hpp"
#include "check.hpp"
#include "common.hpp"
#include "feeds/monitor_hub.hpp"
#include "gen.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "mrt/observation_convert.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using artemis::feeds::Observation;

constexpr std::size_t kReplayBatch = 1024;  // ReplayOptions default
// Set-up and reload are sampled half before the timed passes and half
// after, so that one slow spell of the machine does not cover them all.
constexpr std::uint64_t kReloadSamples = 4;  // ~1.9 s each
constexpr std::size_t kSetups = 4;          // ~1.8 s each
// Throughput and latency are taken in slices of this many replay batches
// (~260k observations, ~45 ms), hand-off to hand-off: short enough that
// every run holds quiet spells of the shared machine that cover whole
// slices. The rings hold ~1k observations per shard, so the producer's
// hand-off rate over a slice is the pipeline's.
constexpr std::size_t kSliceBatches = 256;

struct Input {
  gen::Ownership ownership{gen::Scale::kLarge};
  gen::Stream stream;
  std::string journal_dir;
  std::string config;
  std::string reload_config;
};

class ReplayRun {
 public:
  ReplayRun(const Input& input, const GroundTruth& truth, bool traced)
      : input_(input), truth_(truth), traced_(traced), log_(truth),
        policies_(input.ownership.policies()) {}

  /// Config parse + build_table + reader and detector construction.
  double setup() {
    table_.reset();
    const std::int64_t t0 = now_ns();
    table_ = ownership_.load(input_.config);
    {
      const artemis::journal::JournalReader reader(input_.journal_dir);
      const auto detector = make_detector();
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Runs `n` reload-sampling passes. They re-parse 47 MB mid-pass, which
  /// evicts every cache, so they are checked, not timed or traced. The
  /// timed passes need one before them: they swap in its table.
  void sample_reloads(std::uint64_t n, RunResult& result) {
    const bool tracing = trace::enabled();
    trace::set_enabled(false);
    sample_pass_ = true;
    for (std::uint64_t i = 0; i < n; ++i, ++passes_, ++sample_passes_) run_pass(result);
    sample_pass_ = false;
    trace::set_enabled(tracing);
  }

  /// Replays timed passes until `seconds` of replay time have accumulated.
  void run(double seconds, RunResult& result) {
    while (timed_ns_ < static_cast<std::int64_t>(seconds * 1e9)) {
      run_pass(result);
      ++passes_;
    }
  }

  void report(RunResult& result) {
    const double obs = static_cast<double>(observations_);
    report_throughput(slicer_.slices(), result);
    // Replay latency is queueing in the shard rings, which deepen when the
    // producer outruns the workers, so the fastest slices are not the ones
    // with the least of it: each quantile is the mean of its best quarter
    // of per-slice values.
    set_closed_loop_latency(result, best_quarter_mean(p50_ms_), best_quarter_mean(p99_ms_));
    set_on_time(result, on_time_, planted_);
    result.set("disk_bytes_per_obs",
               static_cast<double>(dir_bytes(input_.journal_dir)) /
                   static_cast<double>(input_.stream.observations));
    // Each reload sample is a 1.9 s re-parse that a slow spell of the
    // machine can cover whole, like set-up: take the best decile.
    ownership_.report(result, best_decile);
    result.set("journal.records_scanned", static_cast<double>(records_scanned_));
    double max_shard = 0;
    double sum_shard = 0;
    for (const double n : shard_obs_) {
      max_shard = std::max(max_shard, n);
      sum_shard += n;
    }
    result.set("pipeline.shard_skew",
               sum_shard > 0 ? max_shard / (sum_shard / static_cast<double>(shard_obs_.size()))
                             : 0);
    result.set("detect.ns_per_obs", static_cast<double>(worker_cpu_ns_) / obs);
    set_registry_metrics(registry_.snapshot_json(), result);
    result.notes.push_back("tenant_replay: " + std::to_string(passes_) + " passes (" +
                           std::to_string(sample_passes_) + " untimed), " +
                           std::to_string(observations_) + " timed observations");
  }

  std::uint64_t observations() const { return observations_; }
  std::size_t timed_passes() const { return timed_passes_; }
  const artemis::core::OwnershipTable& table() const { return *table_; }

 private:
  std::unique_ptr<artemis::pipeline::ShardedDetector> make_detector() {
    artemis::pipeline::ShardedDetectorOptions options;
    options.shards = 3;
    options.threaded = true;
    options.wait_policy = artemis::pipeline::WaitPolicy::kFutex;
    options.metrics = &registry_;
    return std::make_unique<artemis::pipeline::ShardedDetector>(table_, options);
  }

  void run_pass(RunResult& result) {
    log_.reset();
    batch_first_obs_.clear();
    batch_entry_ns_.clear();
    pass_obs_ = 0;
    reload_ = {};
    const std::vector<int> tids_before = task_ids();
    auto detector = make_detector();
    detector->on_alert(make_alert_handler(log_, policies_));
    std::vector<int>& workers = workers_;
    workers.clear();
    for (const int tid : task_ids()) {
      if (!std::binary_search(tids_before.begin(), tids_before.end(), tid)) workers.push_back(tid);
    }
    artemis::feeds::MonitorHub hub;
    if (!traced_) {
      detector->attach(hub);
    } else {
      hub.subscribe_batch([&detector](std::span<const Observation> batch) {
        const trace::Span span("pipeline.submit");
        detector->submit_batch(batch);
      });
    }
    artemis::journal::JournalReader reader(input_.journal_dir);
    const bool timed = !sample_pass_;
    slicer_.begin_pass(timed);
    const std::size_t first_slice = slicer_.slices().size();
    const auto sink = [&](std::span<const Observation> batch) {
      if (!reload_.table && pass_obs_ >= input_.stream.observations / 2) {
        reload(*detector);
        slicer_.drop();  // the reload interval is not timed
      }
      const std::int64_t entry = now_ns();
      slicer_.batch(entry, batch.size());
      batch_first_obs_.push_back(pass_obs_);
      batch_entry_ns_.push_back(entry);
      {
        const trace::Span span("feeds.publish");
        hub.publish_batch(batch);
      }
      pass_obs_ += batch.size();
    };

    std::int64_t worker_cpu0 = 0;
    for (const int tid : workers) worker_cpu0 += task_cpu_ns(tid);
    const std::int64_t start = now_ns();
    {
      const trace::Span root("bench.replay_pass");
      if (!traced_) {
        artemis::journal::ReplayFeed feed(reader);
        feed.replay_all(sink);
      } else {
        artemis::pipeline::ObservationBatch buffer;
        buffer.reserve(kReplayBatch);
        for (;;) {
          std::size_t n = 0;
          {
            const trace::Span span("journal.read");
            n = reader.read_batch(buffer, kReplayBatch);
          }
          if (n == 0) break;
          sink(buffer.view());
        }
      }
      const trace::Span span("pipeline.flush");
      detector->flush();
    }
    const std::int64_t end = now_ns();
    std::int64_t worker_cpu1 = 0;
    for (const int tid : workers) worker_cpu1 += task_cpu_ns(tid);
    slicer_.drop();  // the pass's last, partial slice (and the flush)
    records_scanned_ += reader.records_scanned();
    shard_obs_.resize(detector->shard_count(), 0);
    for (std::size_t i = 0; i < detector->shard_count(); ++i) {
      shard_obs_[i] += static_cast<double>(detector->shard(i).observations_processed());
    }

    result.fail(pass_obs_ != input_.stream.observations ? 1 : 0,
                "a pass replayed a different observation count than journaled");
    result.fail(detector->observations_processed() != pass_obs_ ? 1 : 0,
                "the detector processed a different observation count than replayed");
    const auto alerts = detector->merged_alerts();
    check_alerts(truth_, alerts, &result);
    check_mitigation(log_, alerts.size(), result);
    if (passes_ == 0) self_test_checker(truth_, alerts, result);
    check_late_after_swap(log_, reload_.done_ns, result);
    result.fail(reload_.table ? 0 : 1, "the reload never ran");
    result.attempted += pass_obs_ + truth_.hijacks().size();
    if (!timed) return;
    const auto& hijacks = truth_.hijacks();
    for (std::size_t i = 0; i < hijacks.size(); ++i) {
      const std::int64_t at = log_.handled_at(i);
      if (at == 0) continue;
      // Closed loop: a record is due when the replay hands its batch over.
      const auto it = std::upper_bound(batch_first_obs_.begin(), batch_first_obs_.end(),
                                       hijacks[i].obs);
      const std::size_t b = static_cast<std::size_t>(it - batch_first_obs_.begin()) - 1;
      const double ms = static_cast<double>(at - batch_entry_ns_[b]) * 1e-6;
      on_time_ += ms <= kLatencyLimitMs ? 1 : 0;
      if (Slice* slice = slicer_.slice_of(b)) slice->latency_ms.push_back(ms);
    }
    planted_ += hijacks.size();
    for (std::size_t i = first_slice; i < slicer_.slices().size(); ++i) {
      std::vector<double>& samples = slicer_.slices()[i].latency_ms;
      p50_ms_.push_back(quantile(samples, 0.5));
      p99_ms_.push_back(quantile(samples, 0.99));
      samples = {};
    }
    timed_ns_ += end - start - reload_.wall_ns;
    worker_cpu_ns_ += worker_cpu1 - worker_cpu0;
    observations_ += pass_obs_;
    ++timed_passes_;
  }

  /// CPU of the replay thread and the pass's shard workers.
  std::int64_t cpu_ns() const {
    std::int64_t ns = thread_cpu_ns();
    for (const int tid : workers_) ns += task_cpu_ns(tid);
    return ns;
  }


  /// Reload-sampling passes take the SIGHUP path (re-parse, build_table,
  /// swap); other passes swap in the table already built.
  void reload(artemis::pipeline::ShardedDetector& detector) {
    const trace::Span span("artemis.reload");
    if (sample_pass_) {
      // Free the previous sample's table first: destroying a 1M-entry
      // table is not part of a reload (artemis_ingest swaps from the live one).
      reload_table_.reset();
      reload_ = ownership_.reload(detector, input_.reload_config);
      reload_table_ = reload_.table;
      return;
    }
    reload_ = OwnershipTimings::swap(detector, reload_table_);
  }

  const Input& input_;
  const GroundTruth& truth_;
  bool traced_;
  AlertLog log_;
  std::vector<artemis::core::MitigationPolicy> policies_;
  artemis::telemetry::MetricsRegistry registry_;
  OwnershipTimings ownership_;
  std::shared_ptr<const artemis::core::OwnershipTable> table_;
  std::shared_ptr<const artemis::core::OwnershipTable> reload_table_;
  OwnershipTimings::Reload reload_;  ///< this pass's reload (empty before it)
  std::int64_t timed_ns_ = 0;
  std::int64_t worker_cpu_ns_ = 0;
  std::uint64_t pass_obs_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t records_scanned_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t sample_passes_ = 0;
  bool sample_pass_ = false;
  std::vector<double> shard_obs_;
  std::vector<std::uint64_t> batch_first_obs_;
  std::vector<std::int64_t> batch_entry_ns_;
  std::uint64_t timed_passes_ = 0;
  std::vector<int> workers_;          ///< this pass's shard worker thread ids
  Slicer slicer_{kSliceBatches, [this] { return cpu_ns(); }};  ///< latency kept as p50/p99_ms_
  std::vector<double> p50_ms_;        ///< per timed slice
  std::vector<double> p99_ms_;
  std::uint64_t planted_ = 0;        ///< timed passes only
  std::uint64_t on_time_ = 0;
};

/// Writes the fixture journal: the archive_import write path, untimed.
void build_journal(const Input& input) {
  remove_tree(input.journal_dir);
  artemis::journal::JournalWriter writer(input.journal_dir);
  artemis::mrt::ObservationConverter converter;
  converter.convert_file(input.stream.mrt, writer.tap());
  writer.close();
}

}  // namespace

RunResult run_tenant_replay(const RunContext& ctx) {
  RunResult result;
  Input input;
  gen::StreamSpec spec;
  spec.records = 800'000;
  // About 1 in 16 observations touches owned space: hijack routes (each
  // a fresh alert, repeated by its burst peers) and legitimate ones.
  spec.hijack_every = 24;
  spec.owned_legit_p = 0.08;
  spec.late_from = static_cast<double>(spec.records / 2 + 4096);
  spec.late_share = 0.25;
  input.stream = gen::generate(input.ownership, spec, ctx.seed);
  input.journal_dir = ctx.work_dir + "/fixture-journal";
  input.config = input.ownership.config_text(false);
  input.reload_config = input.ownership.config_text(true);
  result.notes.push_back("inputs digest: " +
                         gen::input_digest(input.stream, input.config, input.reload_config));
  build_journal(input);
  input.stream.mrt = {};
  input.stream.mrt.shrink_to_fit();
  const GroundTruth truth(input.stream.hijacks);
  result.notes.push_back(
      "tenant_replay: " + std::to_string(input.stream.observations) + " observations/pass, " +
      std::to_string(input.stream.owned_observations) + " touch owned space, " +
      std::to_string(truth.hijacks().size()) + " planted hijacks, config " +
      std::to_string(input.config.size()) + " bytes");
  if (!ctx.trace) input.stream.prefixes = {};
  reset_peak_rss();

  ReplayRun run(input, truth, false);
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups / 2; ++i) setups.push_back(run.setup());
  run.sample_reloads(kReloadSamples / 2, result);
  run.run(ctx.seconds, result);
  // The late samples repeat the early ones' work; the peak is read before
  // them so that their heap layout, after the timed passes, cannot move it.
  result.set("peak_rss_mb", peak_rss_mb());
  run.sample_reloads(kReloadSamples / 2, result);
  for (std::size_t i = 0; i < kSetups / 2; ++i) setups.push_back(run.setup());
  run.report(result);
  set_setup(result, setups);

  if (ctx.trace) {
    RunResult traced;
    ReplayRun traced_run(input, truth, true);
    traced_run.setup();
    trace::set_enabled(true);
    traced_run.sample_reloads(1, traced);
    traced_run.run(ctx.seconds, traced);
    trace::set_enabled(false);
    traced_run.report(traced);
    const trace::LayerTable table = trace::summarize("bench.replay_pass");
    const double obs = static_cast<double>(traced_run.observations());
    for (const char* name :
         {"journal.records_scanned", "pipeline.shard_skew", "detect.ns_per_obs",
          "detect.matched_ratio", "detect.memo_hit_ratio", "detect.prescreen_skip_ratio",
          "detect.dedup_hit_ratio", "detect.alerts", "pipeline.ring_publishes",
          "pipeline.producer_waits", "pipeline.futex_wakeups"}) {
      result.set(name, traced.metrics[name]);
    }
    result.set("journal.read_ns_per_obs", static_cast<double>(table.self("journal.read")) / obs);
    result.set("hub.publish_self_ns_per_obs",
               static_cast<double>(table.self("feeds.publish")) / obs);
    result.set("pipeline.submit_ns_per_obs",
               static_cast<double>(table.self("pipeline.submit")) / obs);
    result.set("pipeline.flush_wait_ms", static_cast<double>(table.total("pipeline.flush")) /
                                             1e6 / static_cast<double>(traced_run.timed_passes()));
    // Worker on-CPU time includes the alert handler; detection is the rest.
    result.set("detect.ns_per_obs",
               traced.metrics["detect.ns_per_obs"] -
                   static_cast<double>(table.total("artemis.mitigate")) / obs);
    finish_trace(ctx, table, result.metrics["obs_per_s"] / traced.metrics["obs_per_s"], traced,
                 result);
    result.set("ownership.match_ns", time_matches(traced_run.table(), input.stream.prefixes));
  }
  remove_tree(ctx.work_dir);
  return result;
}

}  // namespace perfbench
