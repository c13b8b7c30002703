#include "artemis/monitoring.hpp"

#include <cmath>

namespace artemis::core {

MonitoringService::MonitoringService(std::shared_ptr<const OwnershipTable> table)
    : table_(std::move(table)) {}

MonitoringService::MonitoringService(const Config& config)
    : MonitoringService(config.build_table()) {}

void MonitoringService::set_ownership(std::shared_ptr<const OwnershipTable> table) {
  table_ = std::move(table);
  state_.clear();
}

void MonitoringService::attach(feeds::MonitorHub& hub) {
  // Batch-native subscription: one handler call AND one memoized lookup
  // context per delivered batch (see process_batch).
  hub.subscribe_batch([this](std::span<const feeds::Observation> batch) {
    process_batch(batch);
  });
}

std::vector<net::IpAddress> MonitoringService::sample_points(
    const net::Prefix& owned) const {
  if (owned.length() >= owned.max_length()) return {owned.address()};
  const auto [low, high] = owned.split();
  return {low.address(), high.address()};
}

bool MonitoringService::compute_legitimate(const VantageView& view,
                                           const OwnedPrefix& owned) const {
  const auto samples = sample_points(owned.prefix);
  for (const auto& addr : samples) {
    const auto hit = view.routes.lookup(addr);
    if (!hit) return false;  // no route: traffic is blackholed, not ours
    if (!owned.legitimate_origins.contains(*hit->second)) return false;
  }
  return true;
}

void MonitoringService::process_batch(std::span<const feeds::Observation> batch) {
  // Lookups memoized across one batch (map node pointers are stable
  // under unrelated insertions, so caching them across observations is
  // safe; a fresh cursor per call keeps process() behavior unchanged).
  struct {
    bgp::Asn vantage = bgp::kNoAsn;
    VantageView* view = nullptr;
    bool prefix_valid = false;
    net::Prefix prefix;
    const OwnedPrefix* owned = nullptr;
  } cursor;
  for (const auto& obs : batch) {
    // Owned-prefix match memo: archive windows repeat prefixes in bursts,
    // and for the (typical) non-owned majority the memo also
    // short-circuits the scan.
    if (!cursor.prefix_valid || cursor.prefix != obs.prefix) {
      const OwnershipRef ref = table_->match(obs.prefix);
      cursor.owned = ref ? &table_->entry(ref) : nullptr;
      cursor.prefix = obs.prefix;
      cursor.prefix_valid = true;
    }
    if (cursor.owned == nullptr) continue;

    // Per-vantage view memo: one map walk per run of equal vantages.
    if (cursor.view == nullptr || cursor.vantage != obs.vantage) {
      cursor.view = &vantages_[obs.vantage];
      cursor.vantage = obs.vantage;
    }
    auto& view = *cursor.view;
    if (obs.type == feeds::ObservationType::kWithdrawal) {
      view.routes.erase(obs.prefix);
    } else {
      view.routes.insert(obs.prefix, obs.origin_as());
    }

    // Recompute legitimacy for every owned prefix this observation
    // touches (a super-prefix can affect several).
    for (std::size_t i = 0; i < table_->owned().size(); ++i) {
      const auto& candidate = table_->owned()[i];
      if (!candidate.prefix.overlaps(obs.prefix)) continue;
      const bool legit = compute_legitimate(view, candidate);
      const auto key = std::make_pair(obs.vantage, i);
      const auto it = state_.find(key);
      if (it != state_.end() && it->second == legit) continue;
      state_[key] = legit;
      VantageChange change;
      change.when = obs.delivered_at;
      change.vantage = obs.vantage;
      change.owned = candidate.prefix;
      change.legitimate = legit;
      if (const auto hit = view.routes.lookup(candidate.prefix.address())) {
        change.current_origin = *hit->second;
      }
      changes_.push_back(change);
      for (const auto& handler : handlers_) handler(change);
    }
  }
}

std::optional<bool> MonitoringService::vantage_legitimate(
    bgp::Asn vantage, const net::Prefix& owned) const {
  for (std::size_t i = 0; i < table_->owned().size(); ++i) {
    if (table_->owned()[i].prefix != owned) continue;
    const auto it = state_.find(std::make_pair(vantage, i));
    if (it == state_.end()) return std::nullopt;
    return it->second;
  }
  return std::nullopt;
}

double MonitoringService::fraction_legitimate(const net::Prefix& owned) const {
  std::size_t with_data = 0;
  std::size_t legit = 0;
  for (std::size_t i = 0; i < table_->owned().size(); ++i) {
    if (table_->owned()[i].prefix != owned) continue;
    for (const auto& [key, value] : state_) {
      if (key.second != i) continue;
      ++with_data;
      if (value) ++legit;
    }
  }
  if (with_data == 0) return std::nan("");
  return static_cast<double>(legit) / static_cast<double>(with_data);
}

bool MonitoringService::all_legitimate(const net::Prefix& owned) const {
  const double fraction = fraction_legitimate(owned);
  return !std::isnan(fraction) && fraction >= 1.0;
}

std::size_t MonitoringService::vantages_with_data(const net::Prefix& owned) const {
  std::size_t with_data = 0;
  for (std::size_t i = 0; i < table_->owned().size(); ++i) {
    if (table_->owned()[i].prefix != owned) continue;
    for (const auto& [key, value] : state_) {
      if (key.second == i) ++with_data;
    }
  }
  return with_data;
}

void MonitoringService::on_change(std::function<void(const VantageChange&)> handler) {
  handlers_.push_back(std::move(handler));
}

}  // namespace artemis::core
