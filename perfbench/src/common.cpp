#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "artemis/config.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t task_cpu_ns(int tid) {
  // The kernel's per-thread CPU clock id (MAKE_THREAD_CPUCLOCK(tid,
  // CPUCLOCK_SCHED)): exact even while the thread runs on another CPU.
  const auto clock = static_cast<clockid_t>((~tid << 3) | 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    ids.push_back(std::stoi(entry.path().filename().string()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // resets VmHWM to the current RSS
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double best_decile(std::vector<double> values) { return quantile(std::move(values), 0.1); }

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void remove_tree(const std::string& dir) { fs::remove_all(dir); }

void make_dirs(const std::string& dir) { fs::create_directories(dir); }

void RunResult::fail(std::uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  correct = false;
  notes.push_back("check failed (" + std::to_string(count) + "): " + why);
}

void set_setup(RunResult& result, const std::vector<double>& samples) {
  result.set("setup_s", best_decile(samples));
  std::ostringstream line;
  line << "setup_s: best decile of " << samples.size() << " samples, median " << median(samples);
  result.notes.push_back(line.str());
}

std::shared_ptr<const artemis::core::OwnershipTable> OwnershipTimings::load(
    const std::string& text) {
  const std::int64_t t0 = now_ns();
  const auto config = artemis::core::Config::from_json_text(text);
  const std::int64_t t1 = now_ns();
  auto table = config.build_table();
  const std::int64_t t2 = now_ns();
  parse_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
  build_s_.push_back(static_cast<double>(t2 - t1) * 1e-9);
  return table;
}

OwnershipTimings::Reload OwnershipTimings::reload(artemis::pipeline::ShardedDetector& detector,
                                                  const std::string& text) {
  const std::int64_t t0 = now_ns();
  Reload out = swap(detector, artemis::core::Config::from_json_text(text).build_table());
  swap_ms_.push_back(static_cast<double>(out.wall_ns) * 1e-6);
  out.wall_ns = out.done_ns - t0;
  reload_s_.push_back(static_cast<double>(out.wall_ns) * 1e-9);
  return out;
}

OwnershipTimings::Reload OwnershipTimings::swap(
    artemis::pipeline::ShardedDetector& detector,
    std::shared_ptr<const artemis::core::OwnershipTable> table) {
  Reload out;
  const std::int64_t t0 = now_ns();
  detector.reload(table);
  out.done_ns = now_ns();
  out.table = std::move(table);
  out.wall_ns = out.done_ns - t0;
  return out;
}

void OwnershipTimings::report(RunResult& result,
                              double (*reload_summary)(std::vector<double>)) const {
  result.set("ownership.parse_s", median(parse_s_));
  result.set("ownership.build_s", median(build_s_));
  result.set("ownership.swap_ms", median(swap_ms_));
  result.set("reload_s", reload_summary(reload_s_));
  std::ostringstream line;
  line << "reload_s: " << reload_s_.size() << " samples, median " << median(reload_s_)
       << ", best decile " << best_decile(reload_s_);
  result.notes.push_back(line.str());
}

std::uint64_t count_on_time(const std::vector<double>& latency_ms) {
  return static_cast<std::uint64_t>(std::count_if(
      latency_ms.begin(), latency_ms.end(), [](double ms) { return ms <= kLatencyLimitMs; }));
}

void set_on_time(RunResult& result, std::uint64_t on_time, std::uint64_t planted) {
  const double share = planted == 0 ? 0 : static_cast<double>(on_time) / static_cast<double>(planted);
  result.set("on_time_alert_ratio", share);
  result.set("late_alert_ratio", 1.0 - share);
}

void set_latency(RunResult& result, const std::vector<double>& quiet_ms,
                 const std::vector<double>& busy_ms, std::uint64_t planted) {
  const std::pair<const char*, const std::vector<double>*> phases[] = {
      {"quiet", &quiet_ms}, {"busy", &busy_ms}};
  for (const auto& [phase, samples] : phases) {
    result.set(std::string("alert_latency_p50_ms.") + phase, quantile(*samples, 0.5));
    result.set(std::string("alert_latency_p99_ms.") + phase, quantile(*samples, 0.99));
    result.notes.push_back(std::string("alert latency ") + phase + ": " +
                           std::to_string(samples->size()) + " samples");
  }
  set_on_time(result, count_on_time(quiet_ms) + count_on_time(busy_ms), planted);
}

void Slicer::begin_pass(bool timed) {
  timed_ = timed;
  batch_slice_.clear();
  open_ = {};
  open_batches_ = 0;
}

void Slicer::batch(std::int64_t entry_ns, std::size_t observations) {
  if (open_batches_ == batches_per_slice_) {
    open_.wall_ns = entry_ns - open_ns_;
    open_.cpu_ns = cpu_ns_() - open_cpu_ns_;
    if (timed_) slices_.push_back(std::move(open_));
    open_ = {};
    open_batches_ = 0;
  }
  if (open_batches_ == 0) {
    open_ns_ = now_ns();
    open_cpu_ns_ = cpu_ns_();
  }
  batch_slice_.push_back(timed_ ? slices_.size() : kNone);
  open_.observations += observations;
  ++open_batches_;
}

void Slicer::drop() {
  const std::size_t n = batch_slice_.size();
  for (std::size_t i = n - std::min(n, open_batches_); i < n; ++i) batch_slice_[i] = kNone;
  open_ = {};
  open_batches_ = 0;
}

Slice* Slicer::slice_of(std::size_t index) {
  const std::size_t slice = batch_slice_[index];
  return slice == kNone ? nullptr : &slices_[slice];
}

std::vector<const Slice*> report_throughput(const std::vector<Slice>& slices,
                                           RunResult& result) {
  const std::size_t best = std::min(slices.size(), std::max<std::size_t>(1, (slices.size() + 9) / 10));
  // The `best` slices with the least of `total` per observation, pooled.
  const auto best_of = [&](std::int64_t Slice::*total) {
    std::vector<const Slice*> order;
    for (const Slice& s : slices) order.push_back(&s);
    const auto per_obs = [&](const Slice* s) {
      return static_cast<double>(s->*total) / static_cast<double>(s->observations);
    };
    std::sort(order.begin(), order.end(),
              [&](const Slice* a, const Slice* b) { return per_obs(a) < per_obs(b); });
    order.resize(best);
    double observations = 0;
    double sum_ns = 0;
    for (const Slice* s : order) {
      observations += static_cast<double>(s->observations);
      sum_ns += static_cast<double>(s->*total);
    }
    return std::make_pair(order, observations / (sum_ns * 1e-9));
  };
  const auto [fastest, obs_per_s] = best_of(&Slice::wall_ns);
  result.set("obs_per_s", obs_per_s);
  result.set("cpu_s_per_mobs", 1e6 / best_of(&Slice::cpu_ns).second);
  std::vector<double> rates;
  for (const Slice& s : slices) {
    rates.push_back(static_cast<double>(s.observations) / (static_cast<double>(s.wall_ns) * 1e-9));
  }
  std::ostringstream line;
  line << "throughput from the best " << best << " of " << slices.size()
       << " timed slices; obs/s per slice min " << quantile(rates, 0) << " p25 "
       << quantile(rates, 0.25) << " p50 " << median(rates) << " p75 "
       << quantile(rates, 0.75) << " max " << quantile(rates, 1);
  result.notes.push_back(line.str());
  return fastest;
}

void set_closed_loop_latency(RunResult& result, double p50_ms, double p99_ms) {
  for (const char* phase : {"quiet", "busy"}) {
    result.set(std::string("alert_latency_p50_ms.") + phase, p50_ms);
    result.set(std::string("alert_latency_p99_ms.") + phase, p99_ms);
  }
}

double best_quarter_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 3) / 4);
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void finish_trace(const RunContext& ctx, const trace::LayerTable& table,
                  double overhead_ratio, RunResult& traced, RunResult& result) {
  const double calls = static_cast<double>(std::max<std::int64_t>(1, table.count("artemis.mitigate")));
  result.set("mitigation.plan_us", static_cast<double>(table.total("artemis.mitigate")) / 1e3 / calls);
  result.set("trace.overhead_ratio", overhead_ratio);
  result.set("trace.unattributed_ratio",
             table.root_wall_ns > 0 ? static_cast<double>(table.root_self_ns) /
                                          static_cast<double>(table.root_wall_ns)
                                    : 0.0);
  for (auto& line : trace::render(table)) result.notes.push_back(std::move(line));
  const std::string path = ctx.trace_dir + "/" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + ".spans.jsonl";
  trace::dump(path, ctx.workload + "-seed" + std::to_string(ctx.seed));
  result.notes.push_back("span dump: " + path);
  result.correct = result.correct && traced.correct;
  result.failed += traced.failed;
  result.attempted += traced.attempted;
  for (auto& note : traced.notes) result.notes.push_back("traced: " + note);
}

}  // namespace perfbench
