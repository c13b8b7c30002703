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
    if (!owned.legitimate_origin(*hit->second)) return false;
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
    bool owned = false;
  } cursor;
  for (const auto& obs : batch) {
    // Owned-prefix match memo: archive windows repeat prefixes in bursts,
    // and for the (typical) non-owned majority the memo also
    // short-circuits the scan.
    if (!cursor.prefix_valid || cursor.prefix != obs.prefix) {
      cursor.owned = table_->match(obs.prefix).valid();
      cursor.prefix = obs.prefix;
      cursor.prefix_valid = true;
    }
    if (!cursor.owned) continue;

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
    // touches (a super-prefix can affect several), in entry order.
    table_->overlapping(obs.prefix, overlap_);
    for (const std::uint32_t i : overlap_) {
      const OwnedPrefix candidate = table_->owned()[i];
      const bool legit = compute_legitimate(view, candidate);
      const auto key = std::make_pair(i, obs.vantage);
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
  // A prefix listed more than once answers for its first listing.
  std::vector<std::uint32_t> listings;
  table_->listings(owned, listings);
  if (listings.empty()) return std::nullopt;
  const auto it = state_.find(std::make_pair(listings.front(), vantage));
  if (it == state_.end()) return std::nullopt;
  return it->second;
}

std::pair<std::size_t, std::size_t> MonitoringService::tally(const net::Prefix& owned) const {
  std::size_t with_data = 0;
  std::size_t legit = 0;
  std::vector<std::uint32_t> listings;
  table_->listings(owned, listings);
  for (const std::uint32_t i : listings) {
    for (auto it = state_.lower_bound(std::make_pair(i, bgp::Asn{0}));
         it != state_.end() && it->first.first == i; ++it) {
      ++with_data;
      if (it->second) ++legit;
    }
  }
  return {with_data, legit};
}

double MonitoringService::fraction_legitimate(const net::Prefix& owned) const {
  const auto [with_data, legit] = tally(owned);
  if (with_data == 0) return std::nan("");
  return static_cast<double>(legit) / static_cast<double>(with_data);
}

bool MonitoringService::all_legitimate(const net::Prefix& owned) const {
  const double fraction = fraction_legitimate(owned);
  return !std::isnan(fraction) && fraction >= 1.0;
}

std::size_t MonitoringService::vantages_with_data(const net::Prefix& owned) const {
  return tally(owned).first;
}

void MonitoringService::on_change(std::function<void(const VantageChange&)> handler) {
  handlers_.push_back(std::move(handler));
}

}  // namespace artemis::core
