// live_feed: open-loop live ingest. A bench-owned sender thread streams
// raw MRT over one loopback HTTP connection on a fixed schedule (see
// http_sender.hpp) while the ingest thread runs IngestSupervisor::run()
// with detection_tap -> inline 1-shard ShardedDetector on the 16-prefix
// config: `artemis_ingest --detect` against a live collector.
//
// Two phases of equal length: `quiet` offers ~2k observations/s (one
// quiet collector session), `busy` ~100k/s (a busy collector burst).
// Hijacks are planted uniformly in time, ~1100 per phase, so each phase's
// p99 latency has more than ten samples beyond it. Alert latency runs
// from when the last byte of the triggering record was *due* (schedule
// time, not send time) until the alert handler is entered; the handler
// plans the mitigation with the owning tenant's policy. At the phase
// switch the sender raises the reload flag and the tap reloads the
// ownership config at its next batch boundary, exactly where
// artemis_ingest acts on SIGHUP (and again at every later batch, so
// reload_s has many samples); the reload adds tenant "late", hijacked
// only in the busy phase.
//
// Afterwards the journal the run wrote is replayed through a fresh
// detector (reloading at the same observation) and must give the same
// alerts as the live run.
#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <thread>

#include "artemis/config.hpp"
#include "check.hpp"
#include "common.hpp"
#include "gen.hpp"
#include "http_sender.hpp"
#include "ingest/supervisor.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using artemis::feeds::Observation;

constexpr double kQuietObsPerS = 2'000;
constexpr double kBusyObsPerS = 100'000;
constexpr double kAlertsPerPhase = 1'100;
constexpr int kSetups = 100;  // before and again after the session, ~0.1 ms each
constexpr int kSetupBlock = 10;
constexpr auto kSetupBlockGap = std::chrono::milliseconds(250);

struct Input {
  gen::Ownership ownership{gen::Scale::kSmall};
  gen::Stream stream;
  std::string config;
  std::string reload_config;
  double quiet_s = 0;
};

/// One scheduled live session: supervisor, detector, sender, measurements.
class LiveRun {
 public:
  LiveRun(const Input& input, const GroundTruth& truth, std::string dir)
      : input_(input), truth_(truth), dir_(std::move(dir)), log_(truth),
        tap_at_(truth.hijacks().size(), 0) {}

  /// Supervisor (journal writer) construction against a fresh journal
  /// directory, then config parse + build_table + detector construction.
  /// Returns the wall seconds of the latter: as on archive_import, the
  /// writer's filesystem calls are left out of setup_s.
  double setup(int port) {
    supervisor_.reset();
    detector_.reset();
    remove_tree(dir_);
    artemis::ingest::SupervisorOptions options;
    options.journal_dir = dir_;
    options.pipeline.metrics = &registry_;
    options.pipeline.detection_tap = [this](std::span<const Observation> batch) { tap(batch); };
    supervisor_ = std::make_unique<artemis::ingest::IngestSupervisor>(
        options, std::vector<std::string>{"http://127.0.0.1:" + std::to_string(port) +
                                          "/live.mrt"});
    const std::int64_t t0 = now_ns();
    table_ = ownership_.load(input_.config);
    artemis::pipeline::ShardedDetectorOptions detect;  // inline, 1 shard
    detect.metrics = &registry_;
    detector_ = std::make_unique<artemis::pipeline::ShardedDetector>(table_, detect);
    detector_->on_alert(make_alert_handler(log_, input_.ownership.policies()));
    detector_->on_alert([this](const artemis::core::HijackAlert& alert) {
      const int id = truth_.find(alert.key());
      if (id >= 0) tap_at_[static_cast<std::size_t>(id)] = tap_entry_ns_;
    });
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Streams the whole schedule and checks the outcome.
  void run(LiveSender& sender, RunResult& result) {
    sender_ = &sender;
    artemis::ingest::IngestReport report;
    std::int64_t ingest_cpu = 0;
    std::thread ingest([&] {
      const std::int64_t c0 = thread_cpu_ns();
      const trace::Span root("bench.live_ingest");
      const trace::Span span("ingest.run");
      report = supervisor_->run();
      ingest_cpu = thread_cpu_ns() - c0;
    });
    sender.start();
    ingest.join();
    const bool sent = sender.join();
    detector_->flush();
    ingest_cpu_ns_ = ingest_cpu;

    result.fail(sent ? 0 : 1, "the sender could not deliver the stream");
    result.fail(report.sources.size() == 1 &&
                        report.sources[0].outcome == artemis::ingest::FetchOutcome::kOk &&
                        report.sources[0].feed.convert.clean()
                    ? 0
                    : 1,
                "the live source did not ingest cleanly");
    const auto snapshot = registry_.snapshot_json();
    check_ledger(snapshot, input_.stream.observations, result);
    result.fail(detector_->observations_processed() != input_.stream.observations ? 1 : 0,
                "the detector saw a different observation count than generated");
    alerts_ = detector_->merged_alerts();
    check_alerts(truth_, alerts_, &result);
    check_mitigation(log_, alerts_.size(), result);
    self_test_checker(truth_, alerts_, result);
    check_late_after_swap(log_, first_reload_.done_ns, result);
    result.fail(reload_obs_ == 0 ? 1 : 0, "the reload never ran");
    result.attempted += input_.stream.observations + truth_.hijacks().size();

    const std::int64_t t0 = sender.t0_ns();
    const auto& hijacks = truth_.hijacks();
    std::vector<double> quiet, busy, quiet_to_tap, quiet_in_tap, busy_to_tap, busy_in_tap;
    for (std::size_t i = 0; i < hijacks.size(); ++i) {
      const std::int64_t at = log_.handled_at(i);
      if (at == 0) continue;
      const std::int64_t due = t0 + hijacks[i].due_us * 1000;
      const bool is_quiet = static_cast<double>(hijacks[i].due_us) < input_.quiet_s * 1e6;
      (is_quiet ? quiet : busy).push_back(static_cast<double>(at - due) * 1e-6);
      (is_quiet ? quiet_to_tap : busy_to_tap)
          .push_back(static_cast<double>(tap_at_[i] - due) * 1e-6);
      (is_quiet ? quiet_in_tap : busy_in_tap)
          .push_back(static_cast<double>(at - tap_at_[i]) * 1e-6);
    }
    set_latency(result, quiet, busy, hijacks.size());
    result.set("latency_split.quiet.due_to_tap_ms_p50", quantile(quiet_to_tap, 0.5));
    result.set("latency_split.quiet.tap_to_handler_ms_p50", quantile(quiet_in_tap, 0.5));
    result.set("latency_split.busy.due_to_tap_ms_p50", quantile(busy_to_tap, 0.5));
    result.set("latency_split.busy.tap_to_handler_ms_p50", quantile(busy_in_tap, 0.5));
    double to_tap = 0, total = 0;
    for (std::size_t i = 0; i < quiet.size(); ++i) {
      to_tap += quiet_to_tap[i];
      total += quiet[i];
    }
    result.set("latency_split.quiet.batch_fill_share", total > 0 ? to_tap / total : 0);

    const double obs = static_cast<double>(input_.stream.observations);
    const double wall_s = static_cast<double>(last_tap_end_ns_ - t0) * 1e-9;
    result.set("obs_per_s", obs / wall_s);
    result.set("cpu_s_per_mobs", best_batch_cpu_s_per_mobs());
    result.set("disk_bytes_per_obs", static_cast<double>(dir_bytes(dir_)) / obs);
    ownership_.report(result);
    result.set("ingest.recv_bytes", snapshot_value(snapshot, "artemis_ingest_bytes_fetched_total"));
    result.set("ingest.fetch_retries",
               snapshot_value(snapshot, "artemis_ingest_fetch_retries_total"));
    result.set("gen.late_ms_max", sender.late_ms_max());
    result.set("gen.send_blocked_ms", sender.send_blocked_ms());
    const double records = snapshot_value(snapshot, "artemis_convert_records_total");
    const double skipped = snapshot_value(snapshot, "artemis_convert_skips_total");
    result.set("mrt.records", records);
    result.set("mrt.skipped_records", skipped);
    result.fail(skipped != static_cast<double>(input_.stream.skipped_records) ? 1 : 0,
                "AS_SET records not skipped exactly");
    result.fail(records + skipped != static_cast<double>(input_.stream.records) ? 1 : 0,
                "MRT records lost by the converter");
    result.set("mrt.batch_obs_mean", obs / static_cast<double>(std::max<std::uint64_t>(1, taps_)));
    result.set("mrt.emit_wait_ms_p50", quantile(emit_wait_ms_, 0.5));
    result.set("mrt.emit_wait_ms_p99", quantile(emit_wait_ms_, 0.99));
    result.set("journal.batches", snapshot_value(snapshot, "artemis_journal_appends_total"));
    result.set("journal.segments", static_cast<double>(report.journal_segments));
    set_registry_metrics(snapshot, result);
  }

  /// The live journal, replayed like journal_alerts (reloading at the
  /// observation where the live tap reloaded), must raise the same alerts.
  void check_replay(RunResult& result) {
    supervisor_.reset();  // closes the journal
    artemis::pipeline::ShardedDetector replay(table_, {});
    artemis::journal::JournalReader reader(dir_);
    artemis::journal::ReplayFeed feed(reader);
    std::uint64_t seen = 0;
    feed.replay_all([&](std::span<const Observation> batch) {
      if (seen < reload_obs_ && seen + batch.size() > reload_obs_) {
        const std::size_t head = static_cast<std::size_t>(reload_obs_ - seen);
        replay.submit_batch(batch.first(head));
        batch = batch.subspan(head);
        seen += head;
      }
      if (seen == reload_obs_) replay.reload(first_reload_.table);
      replay.submit_batch(batch);
      seen += batch.size();
    });
    const auto replayed = replay.merged_alerts();
    std::uint64_t mismatched = replayed.size() > alerts_.size()
                                   ? replayed.size() - alerts_.size()
                                   : alerts_.size() - replayed.size();
    for (std::size_t i = 0; i < std::min(replayed.size(), alerts_.size()); ++i) {
      mismatched += replayed[i].to_string() == alerts_[i].to_string() ? 0 : 1;
    }
    result.fail(mismatched, "live alerts differ from a replay of the live journal");
    result.attempted += alerts_.size();
  }

  std::int64_t ingest_cpu_ns() const { return ingest_cpu_ns_; }

 private:
  /// The ingest thread does all of the program's work (fetch, convert,
  /// journal, detection). Its CPU per 10^6 observations is pooled over the
  /// tenth of batches (tap to tap) with the least CPU per observation, as
  /// the closed loops' figures come from their best tenth of slices.
  double best_batch_cpu_s_per_mobs() const {
    std::vector<std::pair<double, double>> batches;  // {obs, cpu ns}
    for (std::size_t k = 0; k + 1 < tap_cpu_ns_.size(); ++k) {
      batches.emplace_back(static_cast<double>(tap_obs_[k + 1] - tap_obs_[k]),
                           static_cast<double>(tap_cpu_ns_[k + 1] - tap_cpu_ns_[k]));
    }
    std::sort(batches.begin(), batches.end(), [](const auto& a, const auto& b) {
      return a.second / a.first < b.second / b.first;
    });
    batches.resize(std::max<std::size_t>(1, (batches.size() + 9) / 10));
    double obs = 0;
    double cpu_ns = 0;
    for (const auto& [n, ns] : batches) {
      obs += n;
      cpu_ns += ns;
    }
    return (cpu_ns * 1e-9) / (obs * 1e-6);
  }

  void tap(std::span<const Observation> batch) {
    const std::int64_t entry = now_ns();
    tap_cpu_ns_.push_back(thread_cpu_ns());
    tap_obs_.push_back(observed_);
    if (sender_->reload_requested()) reload();
    const std::int64_t t0 = sender_->t0_ns();
    for (const Observation& obs : batch) {
      const std::int64_t due = t0 + (obs.event_time.as_micros() - gen::kBaseUs) * 1000;
      emit_wait_ms_.push_back(static_cast<double>(entry - due) * 1e-6);
    }
    tap_entry_ns_ = entry;
    {
      const trace::Span span("artemis.detect");  // inline 1-shard submit = detection
      detector_->submit_batch(batch);
    }
    observed_ += batch.size();
    ++taps_;
    last_tap_end_ns_ = now_ns();
  }

  /// The SIGHUP path, at a batch boundary. The first reload onboards
  /// tenant "late" and every later busy-phase batch repeats it (an
  /// operator re-sending SIGHUP: same config, same alerts), so reload_s
  /// comes from ~120 reloads spread over the busy phase, not one
  /// microsecond-scale sample.
  void reload() {
    const trace::Span span("artemis.reload");
    const auto done = ownership_.reload(*detector_, input_.reload_config);
    if (reload_obs_ == 0) {
      first_reload_ = done;
      reload_obs_ = observed_;
    }
  }

  const Input& input_;
  const GroundTruth& truth_;
  std::string dir_;
  AlertLog log_;
  std::vector<std::int64_t> tap_at_;  ///< tap entry of each hijack's batch
  artemis::telemetry::MetricsRegistry registry_;
  OwnershipTimings ownership_;
  OwnershipTimings::Reload first_reload_;
  std::shared_ptr<const artemis::core::OwnershipTable> table_;
  std::unique_ptr<artemis::pipeline::ShardedDetector> detector_;
  std::unique_ptr<artemis::ingest::IngestSupervisor> supervisor_;
  LiveSender* sender_ = nullptr;
  std::vector<artemis::core::HijackAlert> alerts_;
  std::vector<double> emit_wait_ms_;
  std::vector<std::int64_t> tap_cpu_ns_;  ///< ingest-thread CPU at each tap entry
  std::vector<std::uint64_t> tap_obs_;    ///< observations before each tap
  std::int64_t tap_entry_ns_ = 0;
  std::int64_t last_tap_end_ns_ = 0;
  std::int64_t ingest_cpu_ns_ = 0;
  std::uint64_t observed_ = 0;
  std::uint64_t reload_obs_ = 0;
  std::uint64_t taps_ = 0;
};

/// One live session end to end: sender + setup + schedule + checks.
void run_session(const Input& input, const GroundTruth& truth, const std::string& dir,
                 bool traced, int setups, RunResult& result, std::int64_t& ingest_cpu_ns) {
  LiveSender sender(input.stream, static_cast<std::int64_t>(input.quiet_s * 1e6));
  LiveRun run(input, truth, dir);
  std::vector<double> samples;
  // Set-up samples come in blocks a quarter second apart, before the
  // session and again after it: the filesystem calls they make slow down
  // and speed up with the machine from one block to the next.
  const auto sample_setups = [&] {
    for (int i = 0; i < setups; ++i) {
      if (i > 0 && i % kSetupBlock == 0) std::this_thread::sleep_for(kSetupBlockGap);
      samples.push_back(run.setup(sender.port()));
    }
  };
  sample_setups();
  trace::set_enabled(traced);
  run.run(sender, result);
  trace::set_enabled(false);
  run.check_replay(result);
  ingest_cpu_ns = run.ingest_cpu_ns();
  sample_setups();
  if (!traced) set_setup(result, samples);
}

}  // namespace

RunResult run_live_feed(const RunContext& ctx) {
  RunResult result;
  Input input;
  input.quiet_s = ctx.seconds / 2;
  gen::StreamSpec spec;
  spec.phases = {{input.quiet_s, kQuietObsPerS}, {ctx.seconds - input.quiet_s, kBusyObsPerS}};
  spec.hijack_every = std::min(input.quiet_s, ctx.seconds - input.quiet_s) / kAlertsPerPhase;
  spec.owned_legit_p = 1.0 / 64;
  spec.burst_hijacks = false;
  // Late-tenant hijacks start half a second into the busy phase, well
  // after the reload the phase switch triggers.
  spec.late_from = input.quiet_s + 0.5;
  spec.late_share = 0.25;
  input.stream = gen::generate(input.ownership, spec, ctx.seed);
  input.config = input.ownership.config_text(false);
  input.reload_config = input.ownership.config_text(true);
  result.notes.push_back("inputs digest: " +
                         gen::input_digest(input.stream, input.config, input.reload_config));
  const GroundTruth truth(input.stream.hijacks);

  if (!ctx.trace) input.stream.prefixes = {};
  reset_peak_rss();
  std::int64_t untraced_cpu = 0;
  run_session(input, truth, ctx.work_dir + "/journal", false, kSetups, result, untraced_cpu);
  result.set("peak_rss_mb", peak_rss_mb());

  if (ctx.trace) {
    // A second, traced session of the same schedule: per-layer numbers.
    RunResult traced;
    std::int64_t traced_cpu = 0;
    run_session(input, truth, ctx.work_dir + "/journal-traced", true, 1, traced, traced_cpu);
    const trace::LayerTable table = trace::summarize("bench.live_ingest");
    const double obs = static_cast<double>(input.stream.observations);
    for (const auto& [name, value] : traced.metrics) {
      if (name.find('.') != std::string::npos && name.rfind("alert_latency", 0) != 0) {
        result.set(name, value);
      }
    }
    result.set("detect.ns_per_obs", static_cast<double>(table.self("artemis.detect")) / obs);
    // Open loop: wall time is the schedule's, so overhead is the ingest
    // thread's CPU time, traced over untraced.
    finish_trace(ctx, table,
                 static_cast<double>(traced_cpu) / static_cast<double>(untraced_cpu), traced,
                 result);
    result.set("ownership.match_ns",
               time_matches(*artemis::core::Config::from_json_text(input.reload_config)
                                 .build_table(),
                            input.stream.prefixes));
  }
  remove_tree(ctx.work_dir);
  return result;
}

}  // namespace perfbench
