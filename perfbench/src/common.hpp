// Shared plumbing for the bytes-to-alerts benchmark: clocks, resource
// usage, percentiles, the per-run result record, timed ownership loads
// and reloads, the latency reporter and small file helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "artemis/ownership.hpp"
#include "pipeline/sharded_detector.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock).
std::int64_t now_ns();
/// CPU nanoseconds of the calling thread.
std::int64_t thread_cpu_ns();
/// On-CPU nanoseconds of thread `tid` of this process.
std::int64_t task_cpu_ns(int tid);
/// Thread ids of this process, ascending.
std::vector<int> task_ids();
/// Peak resident set of this process in MiB since the last
/// reset_peak_rss() (VmHWM), so generated inputs' transient buffers
/// are not charged to the program.
double peak_rss_mb();
void reset_peak_rss();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// The 10th percentile: set-up is timed many times and reported by its
/// best decile, which repeats from run to run where single samples
/// (filesystem calls, allocator state) do not.
double best_decile(std::vector<double> values);

/// Total bytes of the regular files under `dir` (recursive).
std::uint64_t dir_bytes(const std::string& dir);
void remove_tree(const std::string& dir);
void make_dirs(const std::string& dir);

/// What one invocation was asked to do.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space for journals (wiped per run)
  std::string trace_dir;  ///< where span dumps go
};

/// Everything a workload measured. `metrics` holds end-to-end and per-layer
/// values by name; main() prints the subset the run mode asks for.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines (check failures, the traced-run tables) that go
  /// to stderr ahead of the result line.
  std::vector<std::string> notes;

  void fail(std::uint64_t count, const std::string& why);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Sets setup_s to the best decile of the set-up samples.
void set_setup(RunResult& result, const std::vector<double>& samples);

/// Ownership config handling as artemis_ingest does it, timed. load() is
/// set-up's parse + build_table; reload() is the SIGHUP path (re-parse,
/// build_table, ShardedDetector::reload).
class OwnershipTimings {
 public:
  struct Reload {
    std::shared_ptr<const artemis::core::OwnershipTable> table;
    std::int64_t wall_ns = 0;  ///< reload start to ShardedDetector::reload return
    std::int64_t done_ns = 0;  ///< now_ns() when the swap returned
  };

  /// Parses `text` and builds its table; books ownership.parse_s/build_s.
  std::shared_ptr<const artemis::core::OwnershipTable> load(const std::string& text);
  /// Re-parses `text`, builds the table and swaps it into `detector`;
  /// books reload_s and ownership.swap_ms.
  Reload reload(artemis::pipeline::ShardedDetector& detector, const std::string& text);
  /// Swaps an already-built table into `detector`; books nothing.
  static Reload swap(artemis::pipeline::ShardedDetector& detector,
                     std::shared_ptr<const artemis::core::OwnershipTable> table);
  /// Sets the medians of ownership.parse_s/build_s/swap_ms, and reload_s
  /// as `reload_summary` (median or best_decile) of its samples.
  void report(RunResult& result, double (*reload_summary)(std::vector<double>) = median) const;

 private:
  std::vector<double> parse_s_, build_s_, reload_s_, swap_ms_;
};

/// Alert latency limit: ARTEMIS's own share of the detection delay must
/// stay well below the seconds-to-minutes delay of the feeds.
inline constexpr double kLatencyLimitMs = 1000.0;

/// Sets on_time_alert_ratio and late_alert_ratio. `planted` counts every
/// planted hijack that could have alerted; one that never did is late.
void set_on_time(RunResult& result, std::uint64_t on_time, std::uint64_t planted);

/// The open-loop alert-latency reporter: sets alert_latency_p50_ms/p99_ms
/// .<phase> from each phase's samples, and the on-time ratios over both.
void set_latency(RunResult& result, const std::vector<double>& quiet_ms,
                 const std::vector<double>& busy_ms, std::uint64_t planted);

/// Planted hijacks among `latency_ms` alerted within kLatencyLimitMs.
std::uint64_t count_on_time(const std::vector<double>& latency_ms);

/// A timed slice of a closed-loop workload: a fixed number of consecutive
/// batches within one pass, timed from the hand-off of its first batch to
/// the hand-off of the next slice's first.
struct Slice {
  std::uint64_t observations = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  ///< CPU of every thread that works on the batches
  std::vector<double> latency_ms;  ///< alert latencies of the slice's hijacks, if kept
};

/// Cuts a closed loop's passes into slices of a fixed number of batches,
/// timed from one batch hand-off to another, and remembers which slice
/// each of the pass's batches went to.
class Slicer {
 public:
  /// `cpu_ns` reads the CPU time of every thread that works on batches.
  Slicer(std::size_t batches_per_slice, std::function<std::int64_t()> cpu_ns)
      : batches_per_slice_(batches_per_slice), cpu_ns_(std::move(cpu_ns)) {}

  /// Starts a pass; the slices of an untimed pass are not kept.
  void begin_pass(bool timed);
  /// At a batch hand-off (`entry_ns`): closes the open slice if it is
  /// full, opens one if none is, and books the batch to it.
  void batch(std::int64_t entry_ns, std::size_t observations);
  /// Ends the open slice untimed: a reload ran in it, or the pass ended.
  void drop();
  /// The kept slice batch `index` of this pass went to, or nullptr.
  Slice* slice_of(std::size_t index);
  std::vector<Slice>& slices() { return slices_; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t batches_per_slice_;
  std::function<std::int64_t()> cpu_ns_;
  bool timed_ = false;
  std::vector<Slice> slices_;        ///< kept slices, in order
  Slice open_;
  std::size_t open_batches_ = 0;
  std::int64_t open_ns_ = 0;         ///< the open slice's start
  std::int64_t open_cpu_ns_ = 0;
  std::vector<std::size_t> batch_slice_;  ///< per batch of the pass: index or kNone
};

/// Closed-loop throughput: obs_per_s from the fastest tenth of timed
/// slices and cpu_s_per_mobs from the tenth with the least CPU per
/// observation, each pooled. On a shared machine the other slices measure
/// the neighbours' load; the best tenth is what repeats from run to run.
/// Returns the fastest tenth.
std::vector<const Slice*> report_throughput(const std::vector<Slice>& slices, RunResult& result);

/// A closed loop has one alert-latency distribution; it is reported under
/// both phase names, so every workload reports every end-to-end metric.
void set_closed_loop_latency(RunResult& result, double p50_ms, double p99_ms);

/// The mean of the lowest quarter of `values` (0 for none).
double best_quarter_mean(std::vector<double> values);

/// Folds a traced phase into the result: trace.* metrics, the self-time
/// table, the span dump, and the traced phase's checks and notes.
namespace trace { struct LayerTable; }
void finish_trace(const RunContext& ctx, const trace::LayerTable& table,
                  double overhead_ratio, RunResult& traced, RunResult& result);

RunResult run_archive_import(const RunContext& ctx);
RunResult run_tenant_replay(const RunContext& ctx);
RunResult run_live_feed(const RunContext& ctx);

}  // namespace perfbench
