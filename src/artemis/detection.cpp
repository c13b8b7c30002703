#include "artemis/detection.hpp"

namespace artemis::core {

DetectionService::DetectionService(std::shared_ptr<const OwnershipTable> table,
                                   DetectionOptions options)
    : table_(std::move(table)), options_(options) {}

DetectionService::DetectionService(const Config& config, DetectionOptions options)
    : DetectionService(config.build_table(), options) {}

void DetectionService::set_ownership(std::shared_ptr<const OwnershipTable> table) {
  table_ = std::move(table);
  // The prescreen SoA cache self-invalidates (it keys on the table
  // version); the per-tenant cells need explicit re-registration for
  // tenants the new snapshot introduced.
  if (tenant_registry_ != nullptr) set_tenant_metrics(tenant_registry_);
}

void DetectionService::set_tenant_metrics(telemetry::MetricsRegistry* registry) {
  tenant_registry_ = registry;
  tenant_alert_cells_.clear();
  if (registry == nullptr) return;
  for (const auto& tenant : table_->tenants()) {
    std::string labels = "tenant=\"";
    for (const char c : tenant.name) {
      if (c == '"' || c == '\\') labels += '\\';
      labels += c;
    }
    labels += '"';
    tenant_alert_cells_.push_back(
        registry->counter("artemis_tenant_alerts_total",
                          "Fresh hijack alerts emitted, per tenant", labels));
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
  const OwnedPrefix& owned = table_->entry(ref);

  const bgp::Asn origin = obs.origin_as();
  const bool origin_ok = owned.legitimate_origins.contains(origin);

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
    if (adjacent != bgp::kNoAsn && !owned.legitimate_neighbors.contains(adjacent) &&
        !owned.legitimate_origins.contains(adjacent)) {
      return Classification{HijackType::kFakeFirstHop, owned.prefix, adjacent,
                            ref.tenant};
    }
  }
  return std::nullopt;
}

namespace {
// Prescreen applicability bounds. Below kMinBatch the SoA extraction pass
// costs more than the trie lookups it saves; above kMaxOwned the
// O(owned × batch) linear sweep loses to the O(log) trie. Both limits are
// heuristics tuned on bench_pipeline, not correctness lines — the scalar
// path handles everything.
constexpr std::size_t kPrescreenMinBatch = 16;
constexpr std::size_t kPrescreenMaxOwned = 16;
// Family byte that matches nothing (families are 4 or 6): marks
// withdrawals, which classify() drops unconditionally.
constexpr std::uint8_t kFamNever = 0xFF;
}  // namespace

bool DetectionService::prescreen(std::span<const feeds::Observation> batch) {
  if (batch.size() < kPrescreenMinBatch) return false;
  if (options_.roa_table != nullptr) return false;  // non-owned is classifiable
  if (table_->owned().size() > kPrescreenMaxOwned) return false;

  // Snapshot the owned set in SoA word form (rebuilt only when the
  // ownership snapshot itself changed — tables are immutable, so the
  // version compare is exact, including reloads that keep the count).
  if (table_->version() != owned_snapshot_version_) {
    owned_snapshot_version_ = table_->version();
    owned_hi_.clear();
    owned_lo_.clear();
    owned_len_.clear();
    owned_fam_.clear();
    for (const OwnedPrefix& owned : table_->owned()) {
      const auto [hi, lo] = owned.prefix.address().words();
      owned_hi_.push_back(hi);
      owned_lo_.push_back(lo);
      owned_len_.push_back(static_cast<std::uint64_t>(owned.prefix.length()));
      owned_fam_.push_back(static_cast<std::uint8_t>(owned.prefix.family()));
    }
  }

  // Extraction pass: pull each observation's prefix into parallel word
  // arrays so the compare loop below streams plain uint64 lanes instead
  // of chasing Observation objects.
  const std::size_t n = batch.size();
  scr_hi_.resize(n);
  scr_lo_.resize(n);
  scr_len_.resize(n);
  scr_fam_.resize(n);
  scr_rel_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const feeds::Observation& obs = batch[i];
    const auto [hi, lo] = obs.prefix.address().words();
    scr_hi_[i] = hi;
    scr_lo_[i] = lo;
    scr_len_[i] = static_cast<std::uint64_t>(obs.prefix.length());
    scr_fam_[i] = obs.type == feeds::ObservationType::kWithdrawal
                      ? kFamNever
                      : static_cast<std::uint8_t>(obs.prefix.family());
  }

  // Compare pass: observation i overlaps owned prefix o iff their
  // addresses agree on the first min(len_i, len_o) bits (both stored
  // canonically, so a masked XOR decides it) and the families match.
  // Branchless mask selects + per-lane variable shifts — the loop body
  // auto-vectorizes over the batch (vpsllvq/vpcmpeqq on AVX2).
  for (std::size_t k = 0; k < owned_hi_.size(); ++k) {
    const std::uint64_t ohi = owned_hi_[k];
    const std::uint64_t olo = owned_lo_[k];
    const std::uint64_t olen = owned_len_[k];
    const std::uint8_t ofam = owned_fam_[k];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t m = scr_len_[i] < olen ? scr_len_[i] : olen;
      // Top-m-bits masks for the two address words. The double shift
      // keeps m == 0 defined (yields 0); the clamps keep the shift
      // counts in range for m in [64, 128].
      const std::uint64_t mask_hi =
          m >= 64 ? ~0ULL : (~0ULL << 1) << (63 - m);
      const std::uint64_t mc = m < 64 ? 64 : m;
      const std::uint64_t mask_lo =
          mc >= 128 ? ~0ULL : (~0ULL << 1) << (127 - mc);
      const std::uint64_t diff = ((scr_hi_[i] ^ ohi) & mask_hi) |
                                 ((scr_lo_[i] ^ olo) & mask_lo);
      scr_rel_[i] |=
          static_cast<std::uint8_t>(diff == 0 && scr_fam_[i] == ofam);
    }
  }
  return true;
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

  // When the prescreen ran, scr_rel_[i] == 0 proves classify() would
  // return nullopt (no owned overlap, no RPKI table, or a withdrawal) —
  // those observations skip classification entirely and never touch the
  // memo, so the memo only ever caches keys that went through classify().
  const bool prescreened = prescreen(batch);

  // Telemetry tallies stay batch-local; the shared cells absorb one
  // relaxed add each at the end. The delay histogram is the exception
  // (fresh alerts are rare), recorded inline per alert.
  std::uint64_t tally_skipped = 0;
  std::uint64_t tally_memo_hits = 0;
  std::uint64_t tally_dedup_hits = 0;
  std::uint64_t tally_alerts = 0;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const feeds::Observation& obs = batch[i];
    ++processed_;
    if (prescreened && scr_rel_[i] == 0) {
      ++tally_skipped;
      continue;
    }
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
    if (tally_skipped != 0) metrics_.prescreen_skipped->add(tally_skipped);
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
