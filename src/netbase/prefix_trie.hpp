// A path-compressed (Patricia-style) binary radix trie keyed by IP
// prefixes, backed by a contiguous node arena, with an adaptive direct-
// indexed stride table accelerating large IPv4 tables.
//
// This is the lookup structure behind every RIB and behind the detection
// service's owned-prefix matching: longest-prefix match answers "which of
// my routes forwards this address", and subtree iteration answers "which
// observed routes fall inside an owned prefix" (sub-prefix hijacks).
//
// Layout
// ------
// Nodes live in one std::vector<Node> pool and refer to each other by
// uint32_t index (kNil = absent); indices 0 and 1 are the permanent IPv4
// and IPv6 roots. Each node stores its *entire* key as two MSB-first
// 64-bit words plus a bit length, so an edge implicitly carries the
// skip-label from its parent's length to its own: a /24 insert costs
// O(branching points), not 24 heap allocations. Traversal compares whole
// prefixes with two XORs + countl_zero on the raw words instead of
// calling IpAddress::bit() per level.
//
// Values sit in a std::deque side table (stable addresses under growth)
// indexed by the node's value slot; erased slots go on a free list and
// are reused. erase() clears the value but leaves nodes in place — RIB
// churn makes free-and-restructure a pessimization, and a dead node is
// just an extra branching point.
//
// Stride tables
// -------------
// Once a family's subtrie outgrows a threshold, direct-indexed tables
// over the top S bits of that family's key space (the DIR-24-8 /
// poptrie recipe) map every S-bit chunk to {deepest trie node on that
// path, deepest *valued* node on that path}. A lookup or descent for a
// key of length >= S then starts S bits down with the covering best
// already in hand — one table load replaces the entire dense upper
// region of the trie. Tables form a per-family cascade added as the
// subtrie grows — v4: S = 8, 10, 12, 14, 16, 20 (kStrideSchedule4);
// v6: S = 16, 20, 24 over the top bits of the upper 64-bit word
// (kStrideSchedule6) — and an operation uses the largest stride <= its
// key length, so short-prefix inserts and erases skip the dense region
// too, not just full-address lookups. The v6 strides stop at 24: a
// direct table on the /32 or /48 allocation boundaries would need 2^32+
// slots, while S = 24 (16M slots, sized like DIR-24-8's primary table)
// already absorbs the RIR /12s and the dense bits below them; path
// compression carries the sparse remainder. Small tries — the simulator
// keeps thousands of per-AS RIBs — never allocate any table, and each
// family activates on its own node count, so a large v4 RIB with a
// handful of v6 routes builds no v6 table.
//
// Zero-allocation invariant: find(), lookup(), lookup_covering() and the
// visit_* walks never allocate. insert() allocates only when it creates
// nodes (at most two) or a fresh value slot; overwrites and re-inserts
// after erase() reuse existing storage.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/prefix.hpp"

namespace artemis::net {

/// Maps Prefix -> T with longest-prefix-match and covered-subtree queries.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { init_roots(); }

  /// Inserts or overwrites. Returns true if the prefix was newly inserted.
  bool insert(const Prefix& prefix, T value) {
    const auto [hi, lo] = prefix.address().words();
    const int plen = prefix.length();
    const bool v4 = prefix.is_v4();
    std::uint32_t cur = start_node(hi, plen, v4);
    for (;;) {
      // Invariant: nodes_[cur].len <= plen and its key matches (hi,lo).
      if (nodes_[cur].len == plen) {
        return set_value(cur, std::move(value), v4);
      }
      const bool b = key_bit(hi, lo, nodes_[cur].len);
      const std::uint32_t c = nodes_[cur].child[b];
      if (c == kNil) {
        const std::uint32_t leaf = new_node(hi, lo, plen, v4);
        nodes_[cur].child[b] = leaf;
        return set_value(leaf, std::move(value), v4);
      }
      const std::uint64_t child_hi = nodes_[c].key_hi;
      const std::uint64_t child_lo = nodes_[c].key_lo;
      const int child_len = nodes_[c].len;
      int m = common_bits(hi, lo, child_hi, child_lo);
      const int cap = plen < child_len ? plen : child_len;
      if (m > cap) m = cap;
      if (m == child_len) {  // full edge match, child no more specific than key
        cur = c;
        continue;
      }
      if (m == plen) {
        // The new prefix sits on the edge above the child: splice it in.
        const std::uint32_t mid = new_node(hi, lo, plen, v4);
        nodes_[mid].child[key_bit(child_hi, child_lo, plen)] = c;
        nodes_[cur].child[b] = mid;
        return set_value(mid, std::move(value), v4);
      }
      // Keys diverge at bit m (< plen, < child_len): split the edge with an
      // internal node holding the common bits, then hang both sides off it.
      std::uint64_t mid_hi = hi;
      std::uint64_t mid_lo = lo;
      mask_words(mid_hi, mid_lo, m);
      const std::uint32_t mid = new_node(mid_hi, mid_lo, m, v4);
      const std::uint32_t leaf = new_node(hi, lo, plen, v4);
      const bool key_side = key_bit(hi, lo, m);
      nodes_[mid].child[key_side] = leaf;
      nodes_[mid].child[!key_side] = c;
      nodes_[cur].child[b] = mid;
      return set_value(leaf, std::move(value), v4);
    }
  }

  /// Removes an exact prefix. Returns true if it was present. Nodes stay
  /// in place (value slots are recycled); re-insertion reuses them.
  bool erase(const Prefix& prefix) {
    const std::uint32_t idx = descend(prefix);
    if (idx == kNil || nodes_[idx].value == kNil) return false;
    values_[nodes_[idx].value].reset();
    free_values_.push_back(nodes_[idx].value);
    nodes_[idx].value = kNil;
    --size_;
    const bool v4 = prefix.is_v4();
    const FamilyState& f = fam(v4);
    if (!f.tables.empty() && nodes_[idx].len <= f.tables.back().stride) {
      table_erase_value(idx, v4);
    }
    return true;
  }

  /// Exact-match lookup.
  const T* find(const Prefix& prefix) const {
    const std::uint32_t idx = descend(prefix);
    if (idx == kNil || nodes_[idx].value == kNil) return nullptr;
    return &*values_[nodes_[idx].value];
  }

  T* find(const Prefix& prefix) {
    return const_cast<T*>(static_cast<const PrefixTrie*>(this)->find(prefix));
  }

  /// Longest-prefix match for a full address. Returns the matched prefix
  /// and value, or nullopt if nothing covers the address.
  std::optional<std::pair<Prefix, const T*>> lookup(const IpAddress& addr) const {
    const auto [hi, lo] = addr.words();
    const std::uint32_t best = best_on_path(hi, lo, addr.bits(), addr.is_v4());
    if (best == kNil) return std::nullopt;
    return std::make_pair(node_prefix(best, addr.family()),
                          &*values_[nodes_[best].value]);
  }

  /// The most-specific stored prefix covering `p` (including `p` itself).
  std::optional<std::pair<Prefix, const T*>> lookup_covering(const Prefix& p) const {
    const auto [hi, lo] = p.address().words();
    const std::uint32_t best = best_on_path(hi, lo, p.length(), p.is_v4());
    if (best == kNil) return std::nullopt;
    return std::make_pair(node_prefix(best, p.family()),
                          &*values_[nodes_[best].value]);
  }

  /// Visits every stored entry covering `p` (equal or less specific) in
  /// root-to-leaf order — i.e. all ancestors of `p` including `p` itself.
  template <typename F>
  void visit_covering(const Prefix& p, F&& fn) const {
    const auto [hi, lo] = p.address().words();
    const int plen = p.length();
    std::uint32_t cur = root_index(p.family());
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.value != kNil) fn(node_prefix(cur, p.family()), *values_[n.value]);
      if (n.len >= plen) return;
      const std::uint32_t c = n.child[key_bit(hi, lo, n.len)];
      if (c == kNil) return;
      const Node& ch = nodes_[c];
      if (ch.len > plen || common_bits(hi, lo, ch.key_hi, ch.key_lo) < ch.len) return;
      cur = c;
    }
  }

  /// Thin std::function overload for callers holding a type-erased visitor.
  void visit_covering(const Prefix& p,
                      const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_covering<const std::function<void(const Prefix&, const T&)>&>(p, fn);
  }

  /// Visits every stored entry covered by `p` (equal or more specific),
  /// in depth-first address order.
  template <typename F>
  void visit_covered(const Prefix& p, F&& fn) const {
    const auto [hi, lo] = p.address().words();
    const int plen = p.length();
    std::uint32_t cur = root_index(p.family());
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.len >= plen) {
        visit_subtree(cur, p.family(), fn);
        return;
      }
      const std::uint32_t c = n.child[key_bit(hi, lo, n.len)];
      if (c == kNil) return;
      const Node& ch = nodes_[c];
      const int cap = plen < ch.len ? plen : static_cast<int>(ch.len);
      if (common_bits(hi, lo, ch.key_hi, ch.key_lo) < cap) return;
      cur = c;
    }
  }

  void visit_covered(const Prefix& p,
                     const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_covered<const std::function<void(const Prefix&, const T&)>&>(p, fn);
  }

  /// Visits all entries of both families.
  template <typename F>
  void visit_all(F&& fn) const {
    visit_subtree(kRoot4, IpFamily::kIpv4, fn);
    visit_subtree(kRoot6, IpFamily::kIpv6, fn);
  }

  void visit_all(const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_all<const std::function<void(const Prefix&, const T&)>&>(fn);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Sizes the node arena for `entries` more inserts (each creates at
  /// most two nodes), so a bulk build never reallocates and copies it.
  void reserve(std::size_t entries) { nodes_.reserve(nodes_.size() + 2 * entries); }

  void clear() {
    nodes_.clear();
    values_.clear();
    free_values_.clear();
    for (FamilyState& f : fam_) {
      f.tables.clear();
      f.by_len.fill(-1);
      f.nodes = 0;
    }
    size_ = 0;
    init_roots();
  }

  /// Benchmark/test knob: with stride tables off every operation uses the
  /// plain path-compressed descent (the pre-cascade behavior). Call on an
  /// empty trie; existing tables are dropped and none are built.
  void set_stride_tables_enabled(bool enabled) {
    tables_enabled_ = enabled;
    if (!enabled) {
      for (FamilyState& f : fam_) {
        f.tables.clear();
        f.by_len.fill(-1);
      }
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kRoot4 = 0;
  static constexpr std::uint32_t kRoot6 = 1;

  struct alignas(32) Node {  // exactly one half cache line, never straddling
    std::uint64_t key_hi = 0;  ///< full key, MSB-first, canonical (bits >= len are 0)
    std::uint64_t key_lo = 0;
    std::uint32_t child[2] = {kNil, kNil};
    std::uint32_t value = kNil;  ///< slot in values_, kNil if no stored entry
    std::uint8_t len = 0;        ///< key length in bits (0..128)
  };

  /// One stride-table slot: where to resume the descent for this S-bit
  /// chunk, and the best (deepest valued, len <= stride) covering node.
  /// 8 bytes so both land in one cache line load.
  struct Slot {
    std::uint32_t jump = kRoot4;
    std::uint32_t best = kNil;
  };

  struct StrideTable {
    int stride = 0;
    std::uint32_t root = kRoot4;  ///< family root (the default jump target)
    std::vector<Slot> slots;      ///< size 1 << stride

    std::uint32_t slot_of(std::uint64_t hi) const {
      return static_cast<std::uint32_t>(hi >> (64 - stride));
    }
    /// First slot / slot count covered by a canonical key of `len`
    /// (<= stride) bits. Both families index by the top bits of the
    /// upper 64-bit word (IPv4 occupies its top 32 bits).
    std::pair<std::uint32_t, std::uint32_t> range(std::uint64_t hi, int len) const {
      return {slot_of(hi), std::uint32_t{1} << (stride - len)};
    }
  };

  /// Per-family cascade state: its stride tables, the len -> table index
  /// shortcut, and how many arena nodes the family's subtrie holds (the
  /// activation gauge — each family pays for tables only at its own
  /// scale).
  struct FamilyState {
    std::vector<StrideTable> tables;  ///< ascending stride
    /// Index into tables of the largest stride <= len, -1 if none; one
    /// load replaces scanning the cascade on every operation. Indexed by
    /// min(len, 64) — all strides fit the upper word.
    std::array<std::int8_t, 65> by_len = [] {
      std::array<std::int8_t, 65> a{};
      a.fill(-1);
      return a;
    }();
    std::size_t nodes = 0;  ///< nodes created for this family (never freed)
  };

  FamilyState& fam(bool v4) { return fam_[v4 ? 0 : 1]; }
  const FamilyState& fam(bool v4) const { return fam_[v4 ? 0 : 1]; }

  static std::uint32_t root_index(IpFamily f) {
    return f == IpFamily::kIpv4 ? kRoot4 : kRoot6;
  }

  /// Leading bits shared by two raw 128-bit keys.
  static int common_bits(std::uint64_t a_hi, std::uint64_t a_lo, std::uint64_t b_hi,
                         std::uint64_t b_lo) {
    const std::uint64_t xh = a_hi ^ b_hi;
    if (xh != 0) return std::countl_zero(xh);
    const std::uint64_t xl = a_lo ^ b_lo;
    if (xl != 0) return 64 + std::countl_zero(xl);
    return 128;
  }

  /// Bit i (MSB-first) of a two-word key.
  static bool key_bit(std::uint64_t hi, std::uint64_t lo, int i) {
    const std::uint64_t w = i < 64 ? hi : lo;
    return ((w >> (63 - (i & 63))) & 1u) != 0;
  }

  /// Clears all bits at position >= len.
  static void mask_words(std::uint64_t& hi, std::uint64_t& lo, int len) {
    if (len <= 0) {
      hi = 0;
      lo = 0;
    } else if (len < 64) {
      hi &= ~0ULL << (64 - len);
      lo = 0;
    } else if (len == 64) {
      lo = 0;
    } else if (len < 128) {
      lo &= ~0ULL << (128 - len);
    }
  }

  Prefix node_prefix(std::uint32_t idx, IpFamily family) const {
    const Node& n = nodes_[idx];  // node keys are canonical by construction
    return Prefix::from_canonical(IpAddress::from_words(family, n.key_hi, n.key_lo),
                                  n.len);
  }

  // ------------------------------------------------------------ stride tables

  struct StrideStep {
    std::size_t nodes;
    int stride;
  };

  /// Family-subtrie sizes at which each table of the v4 cascade is added.
  /// The dense 2-bit spacing keeps any key of length >= 8 within two
  /// levels of a table jump. Small tries (the simulator keeps thousands
  /// of them) never allocate any.
  static constexpr StrideStep kStrideSchedule4[] = {{1024, 8},   {1024, 10},
                                                    {1024, 12},  {1024, 14},
                                                    {65536, 16}, {1048576, 20}};
  /// The v6 cascade over the top bits of the upper word. S = 24 is the
  /// ceiling (16M slots × 8 B = 128 MB, the DIR-24-8 primary-table
  /// shape); it activates only for genuinely large tables, where it
  /// absorbs the dense RIR /12 region that dominates real v6 RIBs.
  static constexpr StrideStep kStrideSchedule6[] = {{1024, 16},
                                                    {16384, 20},
                                                    {262144, 24}};

  /// The largest-stride table usable for a `len`-bit key of the family,
  /// or nullptr.
  const StrideTable* table_for(int len, bool v4) const {
    const FamilyState& f = fam(v4);
    const int ti = f.by_len[len > 64 ? 64 : len];
    return ti < 0 ? nullptr : &f.tables[static_cast<std::size_t>(ti)];
  }

  /// Where a descent for a key of length `len` may start: every node
  /// above the chosen slot's jump target provably matches the key.
  std::uint32_t start_node(std::uint64_t hi, int len, bool v4) const {
    if (const StrideTable* t = table_for(len, v4)) {
      return t->slots[t->slot_of(hi)].jump;
    }
    return v4 ? kRoot4 : kRoot6;
  }

  /// Registers a freshly created node with every family table it fits.
  void table_add_node(std::uint32_t idx, bool v4) {
    const Node& n = nodes_[idx];
    for (auto& t : fam(v4).tables) {
      if (n.len > t.stride) continue;
      const auto [first, count] = t.range(n.key_hi, n.len);
      for (std::uint32_t s = first; s < first + count; ++s) {
        if (nodes_[t.slots[s].jump].len < n.len) t.slots[s].jump = idx;
      }
    }
  }

  /// Registers a node that just gained a value.
  void table_add_value(std::uint32_t idx, bool v4) {
    const Node& n = nodes_[idx];
    for (auto& t : fam(v4).tables) {
      if (n.len > t.stride) continue;
      const auto [first, count] = t.range(n.key_hi, n.len);
      for (std::uint32_t s = first; s < first + count; ++s) {
        if (t.slots[s].best == kNil || nodes_[t.slots[s].best].len < n.len) {
          t.slots[s].best = idx;
        }
      }
    }
  }

  /// Unregisters a node whose value was just erased. All affected slots
  /// share the node's root path, so the replacement — the deepest valued
  /// proper ancestor — is the same for every one of them.
  void table_erase_value(std::uint32_t idx, bool v4) {
    const Node& n = nodes_[idx];
    std::uint32_t replacement = kNil;
    std::uint32_t cur = v4 ? kRoot4 : kRoot6;
    while (cur != idx) {
      const Node& a = nodes_[cur];
      if (a.value != kNil) replacement = cur;
      cur = a.child[key_bit(n.key_hi, n.key_lo, a.len)];
      assert(cur != kNil);  // idx is reachable from the root by construction
    }
    for (auto& t : fam(v4).tables) {
      if (n.len > t.stride) continue;
      const auto [first, count] = t.range(n.key_hi, n.len);
      for (std::uint32_t s = first; s < first + count; ++s) {
        if (t.slots[s].best == idx) t.slots[s].best = replacement;
      }
    }
  }

  /// Adds the family's tables whose subtrie-size threshold has been
  /// crossed.
  void maybe_grow_tables(bool v4) {
    if (!tables_enabled_) return;
    const StrideStep* schedule = v4 ? kStrideSchedule4 : kStrideSchedule6;
    const std::size_t steps =
        v4 ? std::size(kStrideSchedule4) : std::size(kStrideSchedule6);
    FamilyState& f = fam(v4);
    for (std::size_t i = 0; i < steps; ++i) {
      const StrideStep& step = schedule[i];
      if (f.nodes < step.nodes) break;
      if (!f.tables.empty() && f.tables.back().stride >= step.stride) continue;
      StrideTable t;
      t.stride = step.stride;
      t.root = v4 ? kRoot4 : kRoot6;
      t.slots.assign(std::size_t{1} << step.stride, Slot{t.root, kNil});
      f.tables.push_back(std::move(t));
      rebuild_table(f.tables.back(), f.tables.back().root);
      for (int len = step.stride; len <= 64; ++len) {
        f.by_len[len] = static_cast<std::int8_t>(f.tables.size() - 1);
      }
    }
  }

  /// Pre-order DFS: parents fill their slot range first, children then
  /// overwrite their (deeper) subranges.
  void rebuild_table(StrideTable& t, std::uint32_t idx) {
    const Node& n = nodes_[idx];
    if (n.len > t.stride) return;
    if (idx != t.root) {
      const auto [first, count] = t.range(n.key_hi, n.len);
      for (std::uint32_t s = first; s < first + count; ++s) t.slots[s].jump = idx;
    }
    if (n.value != kNil) {
      const auto [first, count] = t.range(n.key_hi, n.len);
      for (std::uint32_t s = first; s < first + count; ++s) t.slots[s].best = idx;
    }
    if (n.child[0] != kNil) rebuild_table(t, n.child[0]);
    if (n.child[1] != kNil) rebuild_table(t, n.child[1]);
  }

  // ---------------------------------------------------------------- plumbing

  std::uint32_t new_node(std::uint64_t hi, std::uint64_t lo, int len, bool v4) {
    mask_words(hi, lo, len);
    Node n;
    n.key_hi = hi;
    n.key_lo = lo;
    n.len = static_cast<std::uint8_t>(len);
    nodes_.push_back(n);
    const auto idx = static_cast<std::uint32_t>(nodes_.size() - 1);
    FamilyState& f = fam(v4);
    f.nodes += 1;
    if (!f.tables.empty()) table_add_node(idx, v4);
    return idx;
  }

  bool set_value(std::uint32_t idx, T&& value, bool v4) {
    Node& n = nodes_[idx];
    if (n.value != kNil) {
      *values_[n.value] = std::move(value);
      return false;
    }
    if (!free_values_.empty()) {
      n.value = free_values_.back();
      free_values_.pop_back();
      values_[n.value].emplace(std::move(value));
    } else {
      n.value = static_cast<std::uint32_t>(values_.size());
      values_.emplace_back(std::in_place, std::move(value));
    }
    ++size_;
    if (!fam(v4).tables.empty()) table_add_value(idx, v4);
    maybe_grow_tables(v4);
    return true;
  }

  /// Exact descent: the node whose key is exactly `p`, or kNil.
  std::uint32_t descend(const Prefix& p) const {
    const auto [hi, lo] = p.address().words();
    const int plen = p.length();
    std::uint32_t cur = start_node(hi, plen, p.is_v4());
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.len == plen) return cur;
      const std::uint32_t c = n.child[key_bit(hi, lo, n.len)];
      if (c == kNil) return kNil;
      const Node& ch = nodes_[c];
      if (ch.len > plen || common_bits(hi, lo, ch.key_hi, ch.key_lo) < ch.len) {
        return kNil;
      }
      cur = c;
    }
  }

  /// Deepest valued node on the path that matches the first `total` key
  /// bits — the longest-prefix-match workhorse.
  std::uint32_t best_on_path(std::uint64_t hi, std::uint64_t lo, int total,
                             bool v4) const {
    std::uint32_t cur = v4 ? kRoot4 : kRoot6;
    std::uint32_t best = kNil;
    if (const StrideTable* t = table_for(total, v4)) {
      const Slot slot = t->slots[t->slot_of(hi)];
      cur = slot.jump;
      best = slot.best;
    }
    for (;;) {
      const Node& n = nodes_[cur];
      if (n.value != kNil) best = cur;
      if (n.len >= total) break;
      const std::uint32_t c = n.child[key_bit(hi, lo, n.len)];
      if (c == kNil) break;
      const Node& ch = nodes_[c];
      if (ch.len > total || common_bits(hi, lo, ch.key_hi, ch.key_lo) < ch.len) break;
      cur = c;
    }
    return best;
  }

  template <typename F>
  void visit_subtree(std::uint32_t idx, IpFamily family, F&& fn) const {
    const Node& n = nodes_[idx];
    if (n.value != kNil) fn(node_prefix(idx, family), *values_[n.value]);
    if (n.child[0] != kNil) visit_subtree(n.child[0], family, fn);
    if (n.child[1] != kNil) visit_subtree(n.child[1], family, fn);
  }

  void init_roots() {
    nodes_.reserve(2);
    nodes_.emplace_back();  // kRoot4
    nodes_.emplace_back();  // kRoot6
  }

  std::vector<Node> nodes_;                 ///< arena; 0/1 are the family roots
  std::deque<std::optional<T>> values_;     ///< stable value slots
  std::vector<std::uint32_t> free_values_;  ///< recycled slots from erase()
  FamilyState fam_[2];                      ///< [0] IPv4, [1] IPv6 cascade state
  bool tables_enabled_ = true;              ///< bench/test knob (see setter)
  std::size_t size_ = 0;
};

}  // namespace artemis::net
