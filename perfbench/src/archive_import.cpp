// archive_import: a gzip'd dual-stack MRT update window, imported as fast
// as possible on one thread through IngestPipeline (fixed-size chunks,
// default JournalWriter with index footers, detection_tap -> inline
// 1-shard ShardedDetector) -- `artemis_ingest --detect` without HTTP.
//
// The window is imported repeatedly until --seconds of import time have
// passed; every pass gets a fresh detector, as if it were the next window
// of the archive, so every pass must raise exactly the planted alerts. At
// the halfway observation of each pass the tap reloads the ownership
// config the way artemis_ingest's SIGHUP path does (re-parse the text,
// build_table, ShardedDetector::reload). The reload adds tenant "late",
// whose prefixes are hijacked only in the second half of the window.
//
// The traced run composes the calls IngestPipeline makes internally
// (ChunkDecompressor::feed -> ObservationConverter::feed ->
// JournalWriter::append_batch -> detection tap, pipeline.cpp order) so
// each layer gets its own span.
#include <algorithm>
#include <functional>
#include <memory>
#include <span>

#include "artemis/config.hpp"
#include "check.hpp"
#include "common.hpp"
#include "gen.hpp"
#include "ingest/pipeline.hpp"
#include "journal/writer.hpp"
#include "mrt/stream_reader.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using artemis::feeds::Observation;

constexpr std::size_t kChunkBytes = 8 * 1024;  // one socket read's worth
constexpr int kSetupsPerPass = 5;  // each takes ~0.1 ms
// Throughput is timed in slices of this many converter batches (~130k
// observations, ~50 ms), tap entry to tap entry: short enough that every
// run holds quiet spells of the shared machine that cover whole slices.
constexpr std::size_t kSliceBatches = 32;

struct Input {
  gen::Ownership ownership{gen::Scale::kSmall};
  gen::Stream stream;
  std::vector<std::uint8_t> gz;
  std::string config;
  std::string reload_config;
};

/// One import phase (untraced or traced): the journal, the per-pass
/// detectors and everything measured about them.
class ArchiveRun {
 public:
  ArchiveRun(const Input& input, const GroundTruth& truth, const std::string& dir,
             bool traced)
      : input_(input), truth_(truth), dir_(dir), traced_(traced), log_(truth),
        policies_(input.ownership.policies()) {}

  /// Builds writer, pipeline and the first detector from the config text.
  /// Returns the wall seconds of config parse, build_table, pipeline and
  /// detector construction. The writer is made first and left out: its
  /// construction is filesystem calls (mkdir, directory scans, two file
  /// creations) whose speed on a shared host flips between two levels
  /// about 2x apart for minutes at a time.
  double setup() {
    detector_.reset();
    pipeline_.reset();
    writer_.reset();
    remove_tree(dir_);
    writer_ = std::make_unique<artemis::journal::JournalWriter>(dir_);
    const std::int64_t t0 = now_ns();
    table_ = ownership_.load(input_.config);
    if (!traced_) {
      artemis::ingest::PipelineOptions options;
      options.metrics = &registry_;
      options.detection_tap = [this](std::span<const Observation> batch) { tap(batch); };
      pipeline_ = std::make_unique<artemis::ingest::IngestPipeline>(*writer_, options);
    } else {
      writer_->set_metrics(artemis::telemetry::register_journal(registry_));
    }
    new_detector(table_);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Imports passes until `seconds` of import time have accumulated,
  /// calling `between_passes` (untimed) after each.
  void run(double seconds, RunResult& result, const std::function<void()>& between_passes = {}) {
    const auto decompressor = artemis::mrt::make_chunk_decompressor(
        artemis::mrt::sniff_compression({input_.gz.data(), 4}));
    artemis::mrt::ObservationConverter converter;
    const artemis::feeds::ObservationBatchHandler batch_sink =
        [&, max_lag = artemis::ingest::PipelineOptions{}.max_lag_records](
            std::span<const Observation> batch) {
          {
            const trace::Span span("journal.append");
            if (writer_->records_buffered() >= max_lag) writer_->flush();  // kFlush policy
            writer_->append_batch(batch);
          }
          tap(batch);
        };
    const artemis::mrt::ChunkDecompressor::Output decompressed =
        [&](std::span<const std::uint8_t> data) {
          const trace::Span span("mrt.convert");
          converter.feed(data, batch_sink);
        };

    while (timed_ns_ < static_cast<std::int64_t>(seconds * 1e9)) {
      const std::int64_t start = now_ns();
      batch_fill_start_ns_ = start;
      pass_obs_ = 0;
      slicer_.begin_pass(passes_ > 0);
      {
        const trace::Span root("bench.import_pass");
        if (!traced_) {
          pipeline_->begin_source();
          for (std::size_t off = 0; off < input_.gz.size(); off += kChunkBytes) {
            pipeline_->feed({input_.gz.data() + off,
                             std::min(kChunkBytes, input_.gz.size() - off)});
          }
          const auto stats = pipeline_->finish_source();
          records_ += stats.convert.records;
          skipped_records_ += stats.convert.skipped_records;
        } else {
          converter.begin_file();
          decompressor->reset();
          for (std::size_t off = 0; off < input_.gz.size(); off += kChunkBytes) {
            const trace::Span span("mrt.gunzip");
            decompressor->feed(
                {input_.gz.data() + off, std::min(kChunkBytes, input_.gz.size() - off)},
                decompressed);
          }
          {
            const trace::Span span("mrt.gunzip");
            decompressor->finish(decompressed);
          }
          const trace::Span span("mrt.convert");
          const auto stats = converter.finish_file(batch_sink);
          records_ += stats.records;
          skipped_records_ += stats.skipped_records;
        }
        detector_->flush();  // inline: a no-op, kept for wiring parity
      }
      const std::int64_t end = now_ns();
      // Pass 0 warms caches and the allocator; it is checked, not timed.
      const bool timed = passes_ > 0;
      journaled_ += pass_obs_;
      result.fail(pass_obs_ != input_.stream.observations ? 1 : 0,
                  "a pass emitted a different observation count than generated");
      finish_pass(result);
      if (timed) {
        timed_ns_ += end - start - reload_.wall_ns;
        observations_ += pass_obs_;
      }
      if (!timed) trace::clear();  // spans cover the timed passes only
      ++passes_;
      new_detector(table_);
      if (between_passes) between_passes();
    }
  }

  /// Closes the journal and reports everything measured.
  void report(RunResult& result) {
    detector_.reset();
    pipeline_.reset();
    const auto batches = static_cast<double>(writer_->batches_written());
    const auto segments = static_cast<double>(writer_->segments_opened());
    writer_->close();
    writer_.reset();
    // The latency p50 is batch-fill time, which moves with the machine's
    // speed like the rate, so it comes from the fastest slices; the p99 is
    // set by the slowest 1% of batches, which only the whole run samples.
    std::vector<double> fast_ms;
    std::vector<double> all_ms;
    for (const Slice* s : report_throughput(slicer_.slices(), result)) {
      fast_ms.insert(fast_ms.end(), s->latency_ms.begin(), s->latency_ms.end());
    }
    for (const Slice& s : slicer_.slices()) {
      all_ms.insert(all_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
    }
    set_closed_loop_latency(result, quantile(fast_ms, 0.5), quantile(all_ms, 0.99));
    set_on_time(result, on_time_, planted_);
    result.set("disk_bytes_per_obs",
               static_cast<double>(dir_bytes(dir_)) / static_cast<double>(journaled_));
    ownership_.report(result);
    result.set("mrt.records", static_cast<double>(records_));
    result.set("mrt.skipped_records", static_cast<double>(skipped_records_));
    const std::uint64_t skipped = input_.stream.skipped_records * passes_;
    result.fail(skipped_records_ != skipped ? 1 : 0, "AS_SET records not skipped exactly");
    result.fail(records_ + skipped_records_ != input_.stream.records * passes_ ? 1 : 0,
                "MRT records lost by the converter");
    result.set("mrt.batch_obs_mean",
               static_cast<double>(journaled_) / static_cast<double>(std::max<std::uint64_t>(1, taps_)));
    result.set("mrt.emit_wait_ms_p50", quantile(fill_ms_, 0.5));
    result.set("mrt.emit_wait_ms_p99", quantile(fill_ms_, 0.99));
    result.set("journal.batches", batches);
    result.set("journal.segments", segments);
    const auto snapshot = registry_.snapshot_json();
    set_registry_metrics(snapshot, result);
    if (!traced_) check_ledger(snapshot, journaled_, result);
    result.attempted += journaled_ + truth_.hijacks().size() * passes_;
    result.notes.push_back("archive_import: " + std::to_string(passes_) + " passes (1 warm-up), " +
                           std::to_string(observations_) + " timed observations");
  }

  std::uint64_t observations() const { return observations_; }
  const artemis::core::OwnershipTable& table() const { return *table_; }

 private:
  void new_detector(std::shared_ptr<const artemis::core::OwnershipTable> table) {
    detector_.reset();
    artemis::pipeline::ShardedDetectorOptions options;  // inline, 1 shard
    options.metrics = &registry_;
    detector_ = std::make_unique<artemis::pipeline::ShardedDetector>(std::move(table), options);
    detector_->on_alert(make_alert_handler(log_, policies_));
    log_.reset();
    batch_first_obs_.clear();
    batch_fill_start_.clear();
    reload_ = {};
  }

  /// The detection tap: artemis_ingest's, with the SIGHUP reload replaced
  /// by "the halfway observation of the pass". It also cuts timed passes
  /// into slices of kSliceBatches batches.
  void tap(std::span<const Observation> batch) {
    const std::int64_t entry = now_ns();
    if (!reload_.table && pass_obs_ >= input_.stream.observations / 2) {
      // Every pass re-parses (a 16-prefix reload takes microseconds), so
      // reload_s has one sample per pass, spread over the run.
      const trace::Span span("artemis.reload");
      reload_ = ownership_.reload(*detector_, input_.reload_config);
      slicer_.drop();  // the reload interval is not timed
    }
    slicer_.batch(entry, batch.size());
    batch_first_obs_.push_back(pass_obs_);
    batch_fill_start_.push_back(batch_fill_start_ns_);
    fill_ms_.push_back(static_cast<double>(entry - batch_fill_start_ns_) * 1e-6);
    {
      const trace::Span span("artemis.detect");  // inline 1-shard submit = detection
      detector_->submit_batch(batch);
    }
    pass_obs_ += batch.size();
    ++taps_;
    batch_fill_start_ns_ = now_ns();
  }

  void finish_pass(RunResult& result) {
    slicer_.drop();
    const auto alerts = detector_->merged_alerts();
    check_alerts(truth_, alerts, &result);
    check_mitigation(log_, alerts.size(), result);
    if (passes_ == 0) self_test_checker(truth_, alerts, result);
    check_late_after_swap(log_, reload_.done_ns, result);
    result.fail(reload_.table ? 0 : 1, "the reload never ran");
    const auto& hijacks = truth_.hijacks();
    if (passes_ > 0) planted_ += hijacks.size();
    for (std::size_t i = 0; i < hijacks.size(); ++i) {
      const std::int64_t at = log_.handled_at(i);
      if (at == 0) continue;
      // Closed loop: a record is due when its batch starts filling.
      const auto it = std::upper_bound(batch_first_obs_.begin(), batch_first_obs_.end(),
                                       hijacks[i].obs);
      const std::size_t b = static_cast<std::size_t>(it - batch_first_obs_.begin()) - 1;
      const double ms = static_cast<double>(at - batch_fill_start_[b]) * 1e-6;
      if (passes_ > 0) on_time_ += ms <= kLatencyLimitMs ? 1 : 0;
      if (Slice* slice = slicer_.slice_of(b)) slice->latency_ms.push_back(ms);
    }
  }

  const Input& input_;
  const GroundTruth& truth_;
  std::string dir_;
  bool traced_;
  AlertLog log_;
  std::vector<artemis::core::MitigationPolicy> policies_;
  artemis::telemetry::MetricsRegistry registry_;
  OwnershipTimings ownership_;
  std::shared_ptr<const artemis::core::OwnershipTable> table_;
  std::unique_ptr<artemis::journal::JournalWriter> writer_;
  std::unique_ptr<artemis::ingest::IngestPipeline> pipeline_;
  std::unique_ptr<artemis::pipeline::ShardedDetector> detector_;
  OwnershipTimings::Reload reload_;  ///< this pass's reload (empty before it)
  std::int64_t batch_fill_start_ns_ = 0;
  std::int64_t timed_ns_ = 0;
  Slicer slicer_{kSliceBatches, thread_cpu_ns};  // one thread does all the work
  std::uint64_t planted_ = 0;       ///< timed passes only
  std::uint64_t on_time_ = 0;
  std::uint64_t pass_obs_ = 0;
  std::uint64_t observations_ = 0;  ///< timed passes only
  std::uint64_t journaled_ = 0;     ///< every pass
  std::uint64_t records_ = 0;
  std::uint64_t skipped_records_ = 0;
  std::uint64_t taps_ = 0;
  std::uint64_t passes_ = 0;
  std::vector<std::uint64_t> batch_first_obs_;
  std::vector<std::int64_t> batch_fill_start_;
  std::vector<double> fill_ms_;
};

}  // namespace

RunResult run_archive_import(const RunContext& ctx) {
  RunResult result;
  Input input;
  gen::StreamSpec spec;
  spec.records = 400'000;
  spec.hijack_every = 4096;
  spec.owned_legit_p = 1.0 / 512;
  // Late-tenant hijacks start well past the reload (half the window plus
  // a converter batch worth of records).
  spec.late_from = static_cast<double>(spec.records / 2 + 4096);
  spec.late_share = 0.5;
  input.stream = gen::generate(input.ownership, spec, ctx.seed);
  input.gz = artemis::mrt::gzip_compress(input.stream.mrt, 6);
  input.config = input.ownership.config_text(false);
  input.reload_config = input.ownership.config_text(true);
  result.notes.push_back("inputs digest: " +
                         gen::input_digest(input.stream, input.config, input.reload_config));
  const GroundTruth truth(input.stream.hijacks);
  input.stream.mrt = {};  // the program only ever sees the gzip'd bytes
  if (!ctx.trace) input.stream.prefixes = {};
  reset_peak_rss();

  // Untraced: the end-to-end numbers.
  ArchiveRun run(input, truth, ctx.work_dir + "/journal", false);
  run.setup();
  // Set-up is sampled on a second instance between passes, over the whole
  // run: its filesystem calls slow down and speed up with the machine.
  std::vector<double> setups;
  {
    ArchiveRun probe(input, truth, ctx.work_dir + "/setup-probe", false);
    run.run(ctx.seconds, result, [&] {
      for (int i = 0; i < kSetupsPerPass; ++i) setups.push_back(probe.setup());
    });
  }
  run.report(result);
  set_setup(result, setups);
  result.set("peak_rss_mb", peak_rss_mb());

  if (ctx.trace) {
    // Traced: same work, composed per layer; per-layer metrics come from here.
    RunResult traced;
    ArchiveRun traced_run(input, truth, ctx.work_dir + "/journal-traced", true);
    traced_run.setup();
    trace::set_enabled(true);
    traced_run.run(ctx.seconds, traced);
    trace::set_enabled(false);
    traced_run.report(traced);
    const trace::LayerTable table = trace::summarize("bench.import_pass");
    const double obs = static_cast<double>(traced_run.observations());
    const auto per_obs = [&](const char* name) {
      return static_cast<double>(table.self(name)) / obs;
    };
    for (const char* name : {"mrt.records", "mrt.skipped_records", "mrt.batch_obs_mean",
                             "mrt.emit_wait_ms_p50", "mrt.emit_wait_ms_p99",
                             "journal.batches", "journal.segments", "detect.matched_ratio",
                             "detect.memo_hit_ratio", "detect.prescreen_skip_ratio",
                             "detect.dedup_hit_ratio", "detect.alerts"}) {
      result.set(name, traced.metrics[name]);
    }
    result.set("mrt.gunzip_ns_per_obs", per_obs("mrt.gunzip"));
    result.set("mrt.convert_ns_per_obs", per_obs("mrt.convert"));
    result.set("journal.append_ns_per_obs", per_obs("journal.append"));
    result.set("detect.ns_per_obs", per_obs("artemis.detect"));
    finish_trace(ctx, table, result.metrics["obs_per_s"] / traced.metrics["obs_per_s"], traced,
                 result);
    result.set("ownership.match_ns", time_matches(traced_run.table(), input.stream.prefixes));
  }
  remove_tree(ctx.work_dir);
  return result;
}

}  // namespace perfbench
