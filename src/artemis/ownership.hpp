// Multi-tenant ownership: the shared ground-truth table behind detection.
//
// The paper's system monitors one operator's prefixes; the shared
// pipeline serves many tenants — every AS a potential customer — from
// ONE immutable snapshot:
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
// observation (most-specific covering entry, insertion order breaking
// ties among covered entries) — the same semantics the single-operator
// Config::match had, now tenant-tagged.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
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

/// One owned prefix and its legitimacy ground truth.
struct OwnedPrefix {
  net::Prefix prefix;
  /// ASNs allowed to originate this prefix (usually one; anycast/multi-
  /// origin setups list several).
  std::set<bgp::Asn> legitimate_origins;
  /// Direct upstream/peer ASNs expected adjacent to the origin in paths.
  /// Empty disables the Type-1 (fake first-hop) check for this prefix.
  std::set<bgp::Asn> legitimate_neighbors;
  /// Owning tenant (kDefaultTenantId for single-operator configs).
  TenantId tenant = kDefaultTenantId;
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
/// that table's owned() vector).
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
  /// Freezes `owned` (each entry's `tenant` field must index `tenants`)
  /// and `tenants` (entry i must carry id i) into a snapshot. The trie
  /// is built here — the one cold allocation-heavy step of a reload.
  OwnershipTable(std::vector<OwnedPrefix> owned, std::vector<TenantInfo> tenants);

  OwnershipTable(const OwnershipTable&) = delete;
  OwnershipTable& operator=(const OwnershipTable&) = delete;

  /// The most specific owned prefix overlapping `p` (either direction:
  /// `p` inside an owned prefix — classic / sub-prefix hijack — or `p`
  /// strictly covering an owned prefix — super-prefix announcement), or
  /// an invalid ref. Same semantics as the single-operator Config::match
  /// this replaces, with the winner's tenant tagged on.
  OwnershipRef match(const net::Prefix& p) const;

  /// The entry a valid ref points at. No bounds check — a ref from a
  /// different table is the caller's bug.
  const OwnedPrefix& entry(const OwnershipRef& ref) const {
    return owned_[ref.entry];
  }

  const std::vector<OwnedPrefix>& owned() const { return owned_; }
  bool empty() const { return owned_.empty(); }

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
  std::vector<OwnedPrefix> owned_;
  std::vector<TenantInfo> tenants_;
  net::PrefixTrie<std::uint32_t> index_;  ///< prefix -> index into owned_
  MitigationPolicy fallback_policy_;
  bool any_auto_mitigate_ = false;
  std::uint64_t version_ = 0;
};

}  // namespace artemis::core
