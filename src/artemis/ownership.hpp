// Multi-tenant ownership: the shared ground-truth table behind detection.
//
// The paper's system monitors one operator's prefixes; the shared
// pipeline serves many tenants — every AS a potential customer — from
// ONE immutable snapshot:
//
//   * OwnedEntries — the one stored form of a list of owned prefixes:
//     a flat record per entry plus one ASN arena holding every entry's
//     origins and neighbors as sorted runs. Config appends to one;
//     OwnershipTable freezes one. A 1M-prefix list is two vectors, not
//     2M tree nodes, so loading, copying and moving it is cheap.
//
//   * OwnershipTable — a frozen, arena-trie-backed snapshot of every
//     owned prefix across every tenant. Lookups ride the same
//     path-compressed trie the RIBs use (~40 ns at internet scale), so
//     lookup cost is independent of the tenant count. Immutable by
//     construction: build it (from a Config), publish it, never touch
//     it again — any thread may read it without synchronization.
//
//   * OwnershipRef — the POD result of a lookup: (owned-entry index,
//     tenant id) instead of a bare OwnedPrefix*. Refs are only
//     meaningful against the table that produced them; holding a ref
//     across a snapshot swap is a bug the index form makes visible
//     (the pointer form made it a use-after-free).
//
// A reload builds a NEW table and swaps it in at a batch boundary
// (ShardedDetector::reload -> DetectionService::set_ownership); readers
// that captured the old shared_ptr keep a consistent view until their
// batch ends. Nothing restarts, nothing re-replays, no in-flight batch
// is perturbed.
//
// Overlapping ownership across tenants resolves to a single winner per
// observed prefix (README "Configuration"):
//   1. the most-specific entry covering it (equal or less specific);
//   2. failing that, the first entry it covers, in (address, length)
//      order — not listing order;
//   3. a prefix listed more than once resolves to its last listing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "netbase/prefix.hpp"
#include "netbase/prefix_trie.hpp"

namespace artemis::core {

/// Dense tenant identifier: index into the table's tenant vector. The
/// implicit single-operator tenant (schema v1 configs, --owned flags) is
/// id 0, named "default".
using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenantId = 0;

/// One owned prefix and its legitimacy ground truth: a view into the
/// OwnedEntries that stores it, valid while that store lives and is not
/// appended to.
struct OwnedPrefix {
  net::Prefix prefix;
  /// ASNs allowed to originate this prefix (usually one; anycast/multi-
  /// origin setups list several). Ascending, no repeats.
  std::span<const bgp::Asn> legitimate_origins;
  /// Direct upstream/peer ASNs expected adjacent to the origin in paths.
  /// Ascending, no repeats. Empty disables the Type-1 (fake first-hop)
  /// check for this prefix.
  std::span<const bgp::Asn> legitimate_neighbors;
  /// Owning tenant (kDefaultTenantId for single-operator configs).
  TenantId tenant = kDefaultTenantId;

  bool legitimate_origin(bgp::Asn asn) const {
    return std::binary_search(legitimate_origins.begin(), legitimate_origins.end(), asn);
  }
  bool legitimate_neighbor(bgp::Asn asn) const {
    return std::binary_search(legitimate_neighbors.begin(), legitimate_neighbors.end(), asn);
  }
};

/// The one stored form of a list of owned prefixes, shared by Config
/// (which appends to it) and OwnershipTable (which freezes it): a record
/// per entry plus one ASN arena holding each entry's origins, then its
/// neighbors, each run sorted and repeat-free. Moving it moves two
/// vectors and copying it copies them; there is no per-entry allocation.
class OwnedEntries {
 public:
  /// Yields each entry's view, for range-for.
  class Iterator {
   public:
    Iterator(const OwnedEntries* entries, std::size_t i) : entries_(entries), i_(i) {}
    OwnedPrefix operator*() const { return (*entries_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const OwnedEntries* entries_;
    std::size_t i_;
  };

  /// Appends an entry; either ASN list may come in any order, with
  /// repeats. Validation is the caller's (Config::add_owned).
  void add(const net::Prefix& prefix, TenantId tenant, const std::vector<bgp::Asn>& origins,
           const std::vector<bgp::Asn>& neighbors);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  OwnedPrefix operator[](std::size_t i) const {
    const Record& r = records_[i];
    const bgp::Asn* arena = asns_.data();
    return OwnedPrefix{r.prefix,
                       {arena + r.origins, arena + r.neighbors},
                       {arena + r.neighbors, arena + r.end},
                       r.tenant};
  }
  OwnedPrefix front() const { return (*this)[0]; }
  const net::Prefix& prefix(std::size_t i) const { return records_[i].prefix; }

  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, records_.size()}; }

 private:
  struct Record {
    net::Prefix prefix;
    TenantId tenant = kDefaultTenantId;
    std::uint32_t origins = 0;    ///< arena offset of the first origin
    std::uint32_t neighbors = 0;  ///< arena offset of the first neighbor
    std::uint32_t end = 0;        ///< arena offset past the last neighbor
  };

  /// Appends `asns` to the arena as a sorted, repeat-free run.
  void append_run(const std::vector<bgp::Asn>& asns);

  std::vector<Record> records_;
  std::vector<bgp::Asn> asns_;
};

/// Mitigation policy knobs (paper §2: de-aggregation with the /24
/// caveat). Per-tenant: each tenant of a shared deployment chooses its
/// own floor and auto/alert mode.
struct MitigationPolicy {
  /// Announce sub-prefixes no longer than this (the Internet's filtering
  /// boundary). A hijacked prefix is split into its two halves as long as
  /// they are <= this length.
  int deaggregation_floor = 24;
  /// Also re-announce the exact hijacked prefix (helps when the hijack is
  /// losing the tie-break anyway; harmless otherwise).
  bool reannounce_exact = true;
  /// Automatic mitigation on alert; false = detect-only (alert mode).
  bool auto_mitigate = true;
  /// Outsourcing (extension, following the authors' later work): when
  /// helper controllers are registered with the MitigationService, have
  /// the helper organizations announce the mitigation prefixes too (MOAS)
  /// and tunnel the traffic back. kWhenInfeasible only activates helpers
  /// for victims de-aggregation cannot defend (/24s).
  enum class Outsource : std::uint8_t { kNever, kWhenInfeasible, kAlways };
  Outsource outsource = Outsource::kWhenInfeasible;
};

/// One tenant's identity and policy inside a table.
struct TenantInfo {
  TenantId id = kDefaultTenantId;
  std::string name;
  MitigationPolicy mitigation;
};

/// POD lookup result: which owned entry matched and whose it is. Only
/// meaningful against the OwnershipTable that produced it (entry indexes
/// that table's owned() list).
struct OwnershipRef {
  static constexpr std::uint32_t kInvalidEntry = 0xFFFFFFFFu;
  std::uint32_t entry = kInvalidEntry;
  TenantId tenant = kDefaultTenantId;

  bool valid() const { return entry != kInvalidEntry; }
  explicit operator bool() const { return valid(); }
  bool operator==(const OwnershipRef&) const = default;
};

/// The immutable multi-tenant snapshot. Construct via Config::build_table
/// (or the constructor, for synthetic benches), then share freely:
/// every member is const after construction, so concurrent readers need
/// no synchronization — publication order is the pipeline barrier's
/// business (ShardedDetector::reload).
class OwnershipTable {
 public:
  /// Freezes `owned` (each entry's tenant must index `tenants`) and
  /// `tenants` (entry i must carry id i) into a snapshot. The trie is
  /// built here, in address order: a path-compressed trie has the same
  /// shape whatever the insertion order, and consecutive inserts then
  /// share their path instead of missing cache all the way down.
  OwnershipTable(OwnedEntries owned, std::vector<TenantInfo> tenants);

  OwnershipTable(const OwnershipTable&) = delete;
  OwnershipTable& operator=(const OwnershipTable&) = delete;

  /// The owned entry overlapping `p` (either direction: `p` inside an
  /// owned prefix — classic / sub-prefix hijack — or `p` strictly
  /// covering an owned prefix — super-prefix announcement) that wins by
  /// the rule in the header comment, or an invalid ref.
  OwnershipRef match(const net::Prefix& p) const;

  /// The entry a valid ref points at. No bounds check — a ref from a
  /// different table is the caller's bug.
  OwnedPrefix entry(const OwnershipRef& ref) const { return owned_[ref.entry]; }

  const OwnedEntries& owned() const { return owned_; }
  bool empty() const { return owned_.empty(); }

  /// Every entry whose prefix overlaps `p` (covers it, equals it or lies
  /// inside it), every listing of a repeated prefix included, into `out`
  /// in ascending entry order. `out` is cleared first.
  void overlapping(const net::Prefix& p, std::vector<std::uint32_t>& out) const;

  /// Every listing of exactly `p`, ascending, into `out` (cleared first).
  void listings(const net::Prefix& p, std::vector<std::uint32_t>& out) const;

  const std::vector<TenantInfo>& tenants() const { return tenants_; }
  /// nullptr for an id this table does not know.
  const TenantInfo* tenant(TenantId id) const {
    return id < tenants_.size() ? &tenants_[id] : nullptr;
  }
  /// The tenant's policy; a default-constructed policy for unknown ids
  /// (so a stale tenant id after a reload degrades, never crashes).
  const MitigationPolicy& policy(TenantId id) const {
    return id < tenants_.size() ? tenants_[id].mitigation : fallback_policy_;
  }
  /// True when any tenant wants automatic mitigation (the app wires the
  /// mitigation handler iff this holds; per-alert policy still decides).
  bool any_auto_mitigate() const { return any_auto_mitigate_; }

  /// Monotonic snapshot identity (process-wide): every built table gets
  /// a fresh version, so "did the snapshot change?" is one integer
  /// compare — e.g. proving a reload reached every shard.
  std::uint64_t version() const { return version_; }

 private:
  /// Appends every listing of the prefix whose last listing is `winner`,
  /// ascending.
  void append_listings(std::uint32_t winner, std::vector<std::uint32_t>& out) const;

  OwnedEntries owned_;
  std::vector<TenantInfo> tenants_;
  net::PrefixTrie<std::uint32_t> index_;  ///< prefix -> its last listing
  /// Entry -> the previous listing of its prefix (kInvalidEntry for a
  /// first listing); empty while no prefix is listed twice, the usual
  /// config.
  std::vector<std::uint32_t> earlier_;
  MitigationPolicy fallback_policy_;
  bool any_auto_mitigate_ = false;
  std::uint64_t version_ = 0;
};

}  // namespace artemis::core
