#include "artemis/detection.hpp"

#include <algorithm>

namespace artemis::core {

DetectionService::DetectionService(std::shared_ptr<const OwnershipTable> table,
                                   DetectionOptions options)
    : table_(std::move(table)), options_(options) {}

DetectionService::DetectionService(const Config& config, DetectionOptions options)
    : DetectionService(config.build_table(), options) {}

void DetectionService::set_ownership(std::shared_ptr<const OwnershipTable> table) {
  table_ = std::move(table);
  // Tenant ids index the new snapshot's tenant list, so the per-tenant
  // cells are re-resolved by name.
  if (tenant_registry_ != nullptr) set_tenant_metrics(tenant_registry_);
}

void DetectionService::set_tenant_metrics(telemetry::MetricsRegistry* registry) {
  if (registry != tenant_registry_) tenant_cells_by_name_.clear();
  tenant_registry_ = registry;
  tenant_alert_cells_.clear();
  if (registry == nullptr) return;
  for (const auto& tenant : table_->tenants()) {
    auto it = std::lower_bound(
        tenant_cells_by_name_.begin(), tenant_cells_by_name_.end(), tenant.name,
        [](const auto& entry, const std::string& name) { return entry.first < name; });
    if (it == tenant_cells_by_name_.end() || it->first != tenant.name) {
      it = tenant_cells_by_name_.emplace(
          it, tenant.name,
          registry->counter("artemis_tenant_alerts_total",
                            "Fresh hijack alerts emitted, per tenant",
                            telemetry::prometheus_label("tenant", tenant.name)));
    }
    tenant_alert_cells_.push_back(it->second);
  }
}

void DetectionService::attach(feeds::MonitorHub& hub) {
  hub.subscribe_batch(
      [this](std::span<const feeds::Observation> batch) { process_batch(batch); });
}

void DetectionService::on_alert(AlertHandler handler) {
  handlers_.push_back(std::move(handler));
}

std::optional<DetectionService::Classification> DetectionService::classify(
    const feeds::Observation& obs) const {
  if (obs.type == feeds::ObservationType::kWithdrawal) return std::nullopt;
  const OwnershipRef ref = table_->match(obs.prefix);
  if (!ref) {
    // Outside owned space: only the (optional) RPKI signal applies.
    if (options_.roa_table != nullptr &&
        options_.roa_table->validate(obs.prefix, obs.origin_as()) ==
            rpki::Validity::kInvalid) {
      // Best effort: no owned match, report the observed prefix as owned
      // under the default tenant (origin validation is a shared signal).
      return Classification{HijackType::kRpkiInvalid, obs.prefix, obs.origin_as(),
                            kDefaultTenantId};
    }
    return std::nullopt;
  }
  const OwnedPrefix owned = table_->entry(ref);

  const bgp::Asn origin = obs.origin_as();
  const bool origin_ok = owned.legitimate_origin(origin);

  if (obs.prefix == owned.prefix) {
    if (!origin_ok) {
      return Classification{HijackType::kExactOrigin, owned.prefix, origin,
                            ref.tenant};
    }
  } else if (owned.prefix.covers(obs.prefix)) {
    // A more-specific announcement inside our space. Even with our origin
    // it is suspicious (an attacker can forge the origin), but routes we
    // announced ourselves (mitigation sub-prefixes!) must not self-alert:
    // those carry a legitimate origin.
    if (options_.detect_subprefix && !origin_ok) {
      return Classification{HijackType::kSubPrefix, owned.prefix, origin,
                            ref.tenant};
    }
  } else if (obs.prefix.covers(owned.prefix)) {
    if (options_.detect_superprefix && !origin_ok) {
      return Classification{HijackType::kSuperPrefix, owned.prefix, origin,
                            ref.tenant};
    }
  }

  // Origin is fine (or checks disabled); optionally vet the first hop.
  if (options_.detect_fake_first_hop && origin_ok &&
      !owned.legitimate_neighbors.empty()) {
    const bgp::Asn adjacent = obs.attrs.as_path.origin_neighbor();
    if (adjacent != bgp::kNoAsn && !owned.legitimate_neighbor(adjacent) &&
        !owned.legitimate_origin(adjacent)) {
      return Classification{HijackType::kFakeFirstHop, owned.prefix, adjacent,
                            ref.tenant};
    }
  }
  return std::nullopt;
}

void DetectionService::process_batch(std::span<const feeds::Observation> batch) {
  // Classification is a pure function of (type, prefix, origin, first-hop
  // neighbor) — everything else in the observation only matters once an
  // alert is materialized. Real batches (an MRT window, a stream message
  // burst) cluster repeats of the same route, so memoizing the previous
  // classification skips the config-trie walk, and memoizing the previous
  // dedup record skips the hash probe. Both caches are POD and live on
  // the stack: the zero-allocation steady state of process() carries over
  // verbatim (enforced by tests/detection_alloc_test.cpp).
  struct {
    bool valid = false;
    feeds::ObservationType type = feeds::ObservationType::kAnnouncement;
    net::Prefix prefix;
    bgp::Asn origin = bgp::kNoAsn;
    bgp::Asn neighbor = bgp::kNoAsn;
    std::optional<Classification> result;
  } memo;
  AlertKey last_key{};
  HijackRecord* last_record = nullptr;  // stable: unordered_map never moves values

  // Telemetry tallies stay batch-local; the shared cells absorb one
  // relaxed add each at the end. The delay histogram is the exception
  // (fresh alerts are rare), recorded inline per alert.
  std::uint64_t tally_memo_hits = 0;
  std::uint64_t tally_dedup_hits = 0;
  std::uint64_t tally_alerts = 0;

  for (const feeds::Observation& obs : batch) {
    ++processed_;
    const bgp::Asn origin = obs.origin_as();
    const bgp::Asn neighbor = obs.attrs.as_path.origin_neighbor();
    if (!memo.valid || memo.type != obs.type || memo.prefix != obs.prefix ||
        memo.origin != origin || memo.neighbor != neighbor) {
      memo.result = classify(obs);
      memo.valid = true;
      memo.type = obs.type;
      memo.prefix = obs.prefix;
      memo.origin = origin;
      memo.neighbor = neighbor;
    } else {
      ++tally_memo_hits;
    }
    if (!memo.result) continue;
    const Classification& classified = *memo.result;
    ++matched_;

    // Steady state (already-seen observation): at most one hash find, one
    // string hash for the source's first-seen slot — no heap allocations.
    const AlertKey key{classified.type, obs.prefix, classified.offender,
                       classified.tenant};
    HijackRecord* record = nullptr;
    bool fresh = false;
    if (last_record != nullptr && key == last_key) {
      record = last_record;
    } else {
      const auto [it, inserted] = records_.try_emplace(key);
      record = &it->second;
      fresh = inserted;
      last_key = key;
      last_record = record;
    }
    ++record->observations;
    record->first_seen_by_source.try_emplace(obs.source, obs.delivered_at);
    if (!fresh) {
      ++tally_dedup_hits;
      continue;
    }
    ++tally_alerts;
    if (metrics_.detection_delay != nullptr) {
      // Observation event time -> alert emission. delivered_at carries
      // the sim clock in simulation and the wall clock live, so the
      // histogram follows the mode for free.
      const std::int64_t delay_us =
          (obs.delivered_at - obs.event_time).as_micros();
      metrics_.detection_delay->record(
          delay_us > 0 ? static_cast<std::uint64_t>(delay_us) : 0u);
    }

    if (classified.tenant < tenant_alert_cells_.size()) {
      tenant_alert_cells_[classified.tenant]->add();
    }

    // First observation of this hijack: materialize the full alert.
    HijackAlert alert;
    alert.type = classified.type;
    alert.owned_prefix = classified.owned_prefix;
    alert.tenant = classified.tenant;
    if (const TenantInfo* info = table_->tenant(classified.tenant)) {
      alert.tenant_name = info->name;
    }
    alert.observed_prefix = obs.prefix;
    alert.offender = classified.offender;
    alert.observed_path = obs.attrs.as_path;
    alert.vantage = obs.vantage;
    alert.source = obs.source;
    alert.event_time = obs.event_time;
    alert.detected_at = obs.delivered_at;
    alerts_.push_back(alert);
    for (const auto& handler : handlers_) handler(alert);
  }

  if (metrics_.enabled()) {
    metrics_.observations->add(batch.size());
    if (tally_memo_hits != 0) metrics_.memo_hits->add(tally_memo_hits);
    if (tally_dedup_hits != 0) metrics_.dedup_hits->add(tally_dedup_hits);
    if (tally_alerts != 0) metrics_.alerts->add(tally_alerts);
  }
}

const std::unordered_map<std::string, SimTime>* DetectionService::first_seen_by_source(
    const AlertKey& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second.first_seen_by_source;
}

std::uint64_t DetectionService::observation_count(const AlertKey& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? 0 : it->second.observations;
}

}  // namespace artemis::core
