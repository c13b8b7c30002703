#include "check.hpp"

#include <string>

#include "artemis/mitigation.hpp"
#include "trace.hpp"

namespace perfbench {

using artemis::core::AlertKey;
using artemis::core::HijackAlert;

GroundTruth::GroundTruth(std::vector<gen::Hijack> hijacks) : hijacks_(std::move(hijacks)) {
  index_.reserve(hijacks_.size());
  for (std::size_t i = 0; i < hijacks_.size(); ++i) {
    index_.emplace(hijacks_[i].key(), static_cast<int>(i));
  }
}

int GroundTruth::find(const AlertKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

AlertLog::AlertLog(const GroundTruth& truth)
    : truth_(truth),
      at_(std::make_unique<std::atomic<std::int64_t>[]>(truth.hijacks().size())) {
  reset();
}

void AlertLog::reset() {
  for (std::size_t i = 0; i < truth_.hijacks().size(); ++i) {
    at_[i].store(0, std::memory_order_relaxed);
  }
  announcements_.store(0, std::memory_order_relaxed);
}

void AlertLog::record(const HijackAlert& alert, std::int64_t at_ns) {
  // Unplanted alerts are booked by check_alerts from the detector's list.
  const int id = truth_.find(alert.key());
  if (id >= 0) at_[static_cast<std::size_t>(id)].store(at_ns, std::memory_order_relaxed);
}

artemis::core::AlertHandler make_alert_handler(
    AlertLog& log, std::vector<artemis::core::MitigationPolicy> policies) {
  return [&log, policies = std::move(policies)](const HijackAlert& alert) {
    log.record(alert, now_ns());
    const trace::Span span("artemis.mitigate");
    const artemis::core::MitigationPolicy policy =
        alert.tenant < policies.size() ? policies[alert.tenant]
                                       : artemis::core::MitigationPolicy{};
    const auto plan =
        artemis::core::plan_mitigation(alert.owned_prefix, alert.observed_prefix, policy);
    log.count_announcements(plan.announcements.size());
  };
}

std::uint64_t check_alerts(const GroundTruth& truth, const std::vector<HijackAlert>& alerts,
                           RunResult* result) {
  std::vector<int> seen(truth.hijacks().size(), 0);
  std::uint64_t extra = 0;
  std::uint64_t duplicate = 0;
  for (const HijackAlert& alert : alerts) {
    const int id = truth.find(alert.key());
    if (id < 0) {
      ++extra;
    } else if (seen[static_cast<std::size_t>(id)]++ != 0) {
      ++duplicate;
    }
  }
  std::uint64_t missing = 0;
  for (const int count : seen) missing += count == 0 ? 1 : 0;
  if (result != nullptr) {
    result->fail(missing, "planted hijacks that raised no alert");
    result->fail(extra, "alerts no planted hijack explains");
    result->fail(duplicate, "duplicate alerts for one planted hijack");
  }
  return missing + extra + duplicate;
}

void check_mitigation(const AlertLog& log, std::size_t alerts, RunResult& result) {
  result.fail(log.announcements() < alerts ? alerts - log.announcements() : 0,
              "alerts whose mitigation plan announced nothing");
}

void self_test_checker(const GroundTruth& truth, std::vector<HijackAlert> alerts,
                       RunResult& result) {
  const std::uint64_t base = check_alerts(truth, alerts, nullptr);
  for (auto it = alerts.begin(); it != alerts.end(); ++it) {
    if (truth.find(it->key()) >= 0) {
      alerts.erase(it);
      const std::uint64_t with_gap = check_alerts(truth, alerts, nullptr);
      result.fail(with_gap == base + 1 ? 0 : 1,
                  "checker self-test: a removed alert went unnoticed");
      return;
    }
  }
  result.fail(1, "checker self-test: no planted alert to remove");
}

void check_late_after_swap(const AlertLog& log, std::int64_t swap_done_ns,
                           RunResult& result) {
  std::uint64_t early = 0;
  const auto& hijacks = log.truth().hijacks();
  for (std::size_t i = 0; i < hijacks.size(); ++i) {
    const std::int64_t at = log.handled_at(i);
    if (hijacks[i].late && at != 0 && at < swap_done_ns) ++early;
  }
  result.fail(early, "reload-added tenant alerted before the swap");
}

double snapshot_value(const artemis::json::Value& snapshot, const char* name) {
  const artemis::json::Value* entry = snapshot.find(name);
  if (entry == nullptr) return 0;
  if (const auto* value = entry->find("value")) return value->as_number();
  double total = 0;
  if (const auto* cells = entry->find("cells")) {
    for (const auto& [labels, value] : cells->as_object()) total += value.as_number();
  }
  return total;
}

double time_matches(const artemis::core::OwnershipTable& table,
                    const std::vector<artemis::net::Prefix>& prefixes) {
  if (prefixes.empty()) return 0;
  std::uint64_t calls = 0;
  std::uint64_t hits = 0;
  const std::int64_t start = now_ns();
  std::int64_t end = start;
  while (end - start < 200'000'000) {
    for (const auto& prefix : prefixes) hits += table.match(prefix).valid() ? 1 : 0;
    calls += prefixes.size();
    end = now_ns();
  }
  if (hits == calls + 1) return -1;  // keeps the lookups observable
  return static_cast<double>(end - start) / static_cast<double>(calls);
}

void set_registry_metrics(const artemis::json::Value& snapshot, RunResult& result) {
  const double processed = snapshot_value(snapshot, "artemis_detection_observations_total");
  const double skipped = snapshot_value(snapshot, "artemis_detection_prescreen_skipped_total");
  const double memo = snapshot_value(snapshot, "artemis_detection_memo_hits_total");
  const double dedup = snapshot_value(snapshot, "artemis_detection_dedup_hits_total");
  const double alerts = snapshot_value(snapshot, "artemis_detection_alerts_total");
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // A matched observation is a dedup hit or a fresh alert.
  const double matched = dedup + alerts;
  result.set("detect.matched_ratio", ratio(matched, processed));
  result.set("detect.memo_hit_ratio", ratio(memo, processed - skipped));
  result.set("detect.prescreen_skip_ratio", ratio(skipped, processed));
  result.set("detect.dedup_hit_ratio", ratio(dedup, matched));
  result.set("detect.alerts", alerts);
  result.set("pipeline.ring_publishes", snapshot_value(snapshot, "artemis_ring_publishes_total"));
  result.set("pipeline.producer_waits",
             snapshot_value(snapshot, "artemis_ring_producer_waits_total"));
  result.set("pipeline.futex_wakeups",
             snapshot_value(snapshot, "artemis_ring_futex_wakeups_total"));
}

void check_ledger(const artemis::json::Value& snapshot, std::uint64_t expected,
                  RunResult& result) {
  const auto converted = static_cast<std::uint64_t>(
      snapshot_value(snapshot, "artemis_ingest_observations_converted_total"));
  const auto journaled = static_cast<std::uint64_t>(
      snapshot_value(snapshot, "artemis_ingest_observations_journaled_total"));
  const auto skipped = static_cast<std::uint64_t>(
      snapshot_value(snapshot, "artemis_ingest_observations_skipped_total"));
  const auto dropped = static_cast<std::uint64_t>(
      snapshot_value(snapshot, "artemis_ingest_observations_dropped_total"));
  const std::uint64_t accounted = journaled + skipped + dropped;
  result.fail(converted > accounted ? converted - accounted : accounted - converted,
              "ledger: converted != journaled + skipped + dropped");
  result.fail(skipped + dropped, "observations skipped or dropped");
  result.fail(expected > converted ? expected - converted : converted - expected,
              "observations lost between input and converter");
}

}  // namespace perfbench
