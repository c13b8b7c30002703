#include "artemis/ownership.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace artemis::core {

namespace {
/// Process-wide snapshot version source. Starts at 1 so 0 can mean
/// "no table seen yet" in caches keyed on version().
std::atomic<std::uint64_t> g_next_version{1};

/// Sort key of the address-ordered trie build: (address, length, family,
/// entry index) in three words, so std::sort compares three integers
/// and moves 24 bytes, not an entry.
struct BuildKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t tail = 0;  ///< length << 33 | is_v6 << 32 | entry index

  BuildKey() = default;
  BuildKey(const net::Prefix& prefix, std::uint32_t entry) {
    std::tie(hi, lo) = prefix.address().words();
    tail = static_cast<std::uint64_t>(prefix.length()) << 33 |
           static_cast<std::uint64_t>(prefix.is_v4() ? 0 : 1) << 32 | entry;
  }

  std::uint32_t entry() const { return static_cast<std::uint32_t>(tail); }
  /// The prefix comes back from the key: reading it from the entry would
  /// miss cache once per insert.
  net::Prefix prefix() const {
    const auto family = (tail >> 32 & 1) != 0 ? net::IpFamily::kIpv6 : net::IpFamily::kIpv4;
    return net::Prefix::from_canonical(net::IpAddress::from_words(family, hi, lo),
                                       static_cast<int>(tail >> 33));
  }
  bool same_prefix(const BuildKey& o) const {
    return hi == o.hi && lo == o.lo && tail >> 32 == o.tail >> 32;
  }
  friend bool operator<(const BuildKey& a, const BuildKey& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.tail < b.tail;
  }
};
}  // namespace

void OwnedEntries::add(const net::Prefix& prefix, TenantId tenant,
                       const std::vector<bgp::Asn>& origins,
                       const std::vector<bgp::Asn>& neighbors) {
  Record record;
  record.prefix = prefix;
  record.tenant = tenant;
  record.origins = static_cast<std::uint32_t>(asns_.size());
  append_run(origins);
  record.neighbors = static_cast<std::uint32_t>(asns_.size());
  append_run(neighbors);
  record.end = static_cast<std::uint32_t>(asns_.size());
  records_.push_back(record);
}

void OwnedEntries::append_run(const std::vector<bgp::Asn>& asns) {
  const std::size_t first = asns_.size();
  if (asns.size() > std::numeric_limits<std::uint32_t>::max() - first) {
    throw std::length_error("owned-prefix ASN arena exceeds 2^32 ASNs");
  }
  asns_.insert(asns_.end(), asns.begin(), asns.end());
  if (asns.size() > 1) {
    const auto run = asns_.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(run, asns_.end());
    asns_.erase(std::unique(run, asns_.end()), asns_.end());
  }
}

OwnershipTable::OwnershipTable(OwnedEntries owned, std::vector<TenantInfo> tenants)
    : owned_(std::move(owned)),
      tenants_(std::move(tenants)),
      version_(g_next_version.fetch_add(1, std::memory_order_relaxed)) {
  // Address order; listing order among the listings of one prefix, of
  // which only the last is inserted (in listing order it would overwrite
  // the others too).
  std::vector<BuildKey> keys(owned_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = BuildKey(owned_.prefix(i), static_cast<std::uint32_t>(i));
  }
  std::sort(keys.begin(), keys.end());
  index_.reserve(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k + 1 < keys.size() && keys[k + 1].same_prefix(keys[k])) {
      if (earlier_.empty()) earlier_.assign(keys.size(), OwnershipRef::kInvalidEntry);
      earlier_[keys[k + 1].entry()] = keys[k].entry();
      continue;
    }
    index_.insert(keys[k].prefix(), keys[k].entry());
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
  // ...otherwise the first owned prefix p covers, in the (address,
  // length) order visit_covered walks (super-prefix hijack).
  OwnershipRef found;
  index_.visit_covered(p, [&](const net::Prefix&, const std::uint32_t& idx) {
    if (!found.valid()) found = OwnershipRef{idx, owned_[idx].tenant};
  });
  return found;
}

void OwnershipTable::append_listings(std::uint32_t winner,
                                     std::vector<std::uint32_t>& out) const {
  const std::size_t first = out.size();
  for (std::uint32_t e = winner; e != OwnershipRef::kInvalidEntry;
       e = earlier_.empty() ? OwnershipRef::kInvalidEntry : earlier_[e]) {
    out.push_back(e);
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

void OwnershipTable::overlapping(const net::Prefix& p,
                                 std::vector<std::uint32_t>& out) const {
  out.clear();
  index_.visit_covering(p, [&](const net::Prefix&, const std::uint32_t& winner) {
    append_listings(winner, out);  // p itself included
  });
  index_.visit_covered(p, [&](const net::Prefix& q, const std::uint32_t& winner) {
    if (q.length() != p.length()) append_listings(winner, out);
  });
  std::sort(out.begin(), out.end());
}

void OwnershipTable::listings(const net::Prefix& p, std::vector<std::uint32_t>& out) const {
  out.clear();
  if (const std::uint32_t* winner = index_.find(p)) append_listings(*winner, out);
}

}  // namespace artemis::core
