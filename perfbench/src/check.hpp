// Correctness side of the benchmark: planted ground truth, the alert
// handler every workload installs, and the checks that feed error_rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "artemis/detection.hpp"
#include "artemis/ownership.hpp"
#include "common.hpp"
#include "gen.hpp"

namespace perfbench {

/// Planted hijacks, indexed by the alert key each must raise.
class GroundTruth {
 public:
  explicit GroundTruth(std::vector<gen::Hijack> hijacks);
  const std::vector<gen::Hijack>& hijacks() const { return hijacks_; }
  /// Index of the hijack raising `key`, or -1.
  int find(const artemis::core::AlertKey& key) const;

 private:
  std::vector<gen::Hijack> hijacks_;
  std::unordered_map<artemis::core::AlertKey, int, artemis::core::AlertKeyHash> index_;
};

/// Handler-entry time of each planted hijack's alert, written from any
/// detector thread. One pass of a workload = one reset().
class AlertLog {
 public:
  explicit AlertLog(const GroundTruth& truth);
  void reset();
  void record(const artemis::core::HijackAlert& alert, std::int64_t at_ns);
  /// 0 when the hijack has not alerted (yet).
  std::int64_t handled_at(std::size_t id) const {
    return at_[id].load(std::memory_order_relaxed);
  }
  const GroundTruth& truth() const { return truth_; }
  /// Mitigation announcements planned so far (keeps the plan observable).
  void count_announcements(std::size_t n) {
    announcements_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t announcements() const {
    return announcements_.load(std::memory_order_relaxed);
  }

 private:
  const GroundTruth& truth_;
  std::unique_ptr<std::atomic<std::int64_t>[]> at_;
  std::atomic<std::uint64_t> announcements_{0};
};

/// The alert handler of every workload: stamps the handler-entry time,
/// then plans the mitigation with the owning tenant's policy (the
/// paper's "~0 s decision" step) inside an "artemis.mitigate" span.
/// `policies` is indexed by tenant id and must cover every tenant the
/// run can alert on (the reload table's tenants).
artemis::core::AlertHandler make_alert_handler(
    AlertLog& log, std::vector<artemis::core::MitigationPolicy> policies);

/// Compares a detector's merged alert list with the planted truth and
/// books every missing, duplicated or unplanted alert as a failure.
/// Returns the number of failures.
std::uint64_t check_alerts(const GroundTruth& truth,
                           const std::vector<artemis::core::HijackAlert>& alerts,
                           RunResult* result);

/// Every alert must have produced a mitigation plan with at least one
/// announcement (the generated policies re-announce the exact prefix).
void check_mitigation(const AlertLog& log, std::size_t alerts, RunResult& result);

/// Checks that the checker is alive: with one planted alert removed from
/// `alerts`, check_alerts must report exactly one more failure.
void self_test_checker(const GroundTruth& truth,
                       std::vector<artemis::core::HijackAlert> alerts, RunResult& result);

/// Late-tenant hijacks must alert after the reload swap (and only then).
void check_late_after_swap(const AlertLog& log, std::int64_t swap_done_ns,
                           RunResult& result);

/// Ledger from the telemetry snapshot: converted == journaled + skipped +
/// dropped, nothing skipped or dropped, and `expected` observations
/// converted. Reads only MetricsRegistry::snapshot_json().
void check_ledger(const artemis::json::Value& snapshot, std::uint64_t expected,
                  RunResult& result);

/// Value of one counter series in a snapshot_json() document (0 if absent).
double snapshot_value(const artemis::json::Value& snapshot, const char* name);

/// Mean ns of one OwnershipTable::match over `prefixes`, timed in
/// isolation (repeated until at least 0.2 s has passed).
double time_matches(const artemis::core::OwnershipTable& table,
                    const std::vector<artemis::net::Prefix>& prefixes);

/// detect.* ratios and the pipeline ring counters from a snapshot.
void set_registry_metrics(const artemis::json::Value& snapshot, RunResult& result);

}  // namespace perfbench
