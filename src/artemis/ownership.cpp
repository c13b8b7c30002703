#include "artemis/ownership.hpp"

#include <atomic>

namespace artemis::core {

namespace {
/// Process-wide snapshot version source. Starts at 1 so 0 can mean
/// "no table seen yet" in caches keyed on version().
std::atomic<std::uint64_t> g_next_version{1};
}  // namespace

OwnershipTable::OwnershipTable(std::vector<OwnedPrefix> owned,
                               std::vector<TenantInfo> tenants)
    : owned_(std::move(owned)),
      tenants_(std::move(tenants)),
      version_(g_next_version.fetch_add(1, std::memory_order_relaxed)) {
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    index_.insert(owned_[i].prefix, static_cast<std::uint32_t>(i));
  }
  for (const auto& tenant : tenants_) {
    if (tenant.mitigation.auto_mitigate) any_auto_mitigate_ = true;
  }
}

OwnershipRef OwnershipTable::match(const net::Prefix& p) const {
  // Most-specific owned prefix covering p...
  if (const auto hit = index_.lookup_covering(p)) {
    const std::uint32_t idx = *hit->second;
    return OwnershipRef{idx, owned_[idx].tenant};
  }
  // ...otherwise any owned prefix covered by p (super-prefix hijack);
  // first in insertion order wins, matching the old Config::match.
  OwnershipRef found;
  index_.visit_covered(p, [&](const net::Prefix&, const std::uint32_t& idx) {
    if (!found.valid()) found = OwnershipRef{idx, owned_[idx].tenant};
  });
  return found;
}

}  // namespace artemis::core
