// ARTEMIS ownership configuration: the mutable builder/parser side.
//
// Operators (tenants) declare what they own: prefixes, the origin ASNs
// entitled to announce them, and (optionally) the legitimate upstream
// neighbors. Config accumulates those declarations and parses/serializes
// the JSON deployment artifact; the detection path never reads a Config
// directly — it reads the immutable OwnershipTable snapshot that
// build_table() freezes out of one (see ownership.hpp for the
// publication story).
//
// Two JSON schemas load interchangeably (README "Configuration"):
//   * v1 (single operator): top-level {"prefixes":[...],"mitigation":{}}
//     — loads as the implicit default tenant (id 0, name "default"),
//     byte-compatible round trip through to_json().
//   * v2 (multi-tenant):   {"schema_version":2,"tenants":[{"name":...,
//     "prefixes":[...],"mitigation":{...}},...]}
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "artemis/ownership.hpp"
#include "bgp/types.hpp"
#include "json/json.hpp"
#include "netbase/prefix.hpp"
#include "util/time.hpp"

namespace artemis::core {

class ConfigLoader;

class Config {
 public:
  Config() = default;

  /// Registers a tenant and returns its id (dense, in registration
  /// order). Throws std::invalid_argument on an empty or duplicate name.
  TenantId add_tenant(std::string name, MitigationPolicy mitigation = {});

  /// Adds `prefix` under `tenant` (which must exist), with the ASNs that
  /// may originate it and, optionally, its legitimate neighbors. Either
  /// list may come in any order with repeats. Throws when `origins` is
  /// empty.
  void add_owned(TenantId tenant, const net::Prefix& prefix,
                 const std::vector<bgp::Asn>& origins,
                 const std::vector<bgp::Asn>& neighbors = {});

  /// v1-compat form: adds under the implicit default tenant (id 0,
  /// created on first use).
  void add_owned(const net::Prefix& prefix, const std::vector<bgp::Asn>& origins,
                 const std::vector<bgp::Asn>& neighbors = {});

  /// Every owned prefix across every tenant, flat, in insertion order,
  /// tenant-tagged (OwnedPrefix::tenant) — the store build_table hands
  /// to the table.
  const OwnedEntries& owned() const { return owned_; }
  bool owns_nothing() const { return owned_.empty(); }

  /// Registered tenants, index == id. Empty until the first add_tenant /
  /// add_owned / mitigation() call.
  const std::vector<TenantInfo>& tenants() const { return tenants_; }

  /// v1-compat accessors: the default (first) tenant's mitigation
  /// policy, creating the default tenant when none exists yet.
  MitigationPolicy& mitigation();
  const MitigationPolicy& mitigation() const;

  /// Freezes the current state into an immutable snapshot (the trie is
  /// built here). Cold path: reload cost, not per-batch cost. The rvalue
  /// form moves the entries into the table, so
  /// `Config::from_json_text(text).build_table()` — the SIGHUP reload —
  /// copies nothing; the const form copies the Config first (two flat
  /// vectors and the tenant list).
  std::shared_ptr<const OwnershipTable> build_table() const&;
  std::shared_ptr<const OwnershipTable> build_table() &&;

  /// Loads either schema (v2 when a "tenants" member is present, v1
  /// otherwise) in one pass over the text, members in any order, without
  /// building a json::Value. Throws json::JsonError (syntax, missing or
  /// mistyped member, a member repeated in one object) or
  /// std::invalid_argument (a value out of range); either message ends
  /// in the byte offset it refers to. When a document has several
  /// faults, the exception type is that of the first one in schema
  /// order (version, mitigation, then tenants and entries in document
  /// order), whatever their order in the text.
  static Config from_json_text(std::string_view text);

  /// Serializes: the v1 shape when the config holds only the implicit
  /// default tenant (byte-compatible with pre-multi-tenant builds, the
  /// golden-fixture guarantee), the v2 "tenants" shape otherwise.
  json::Value to_json() const;

 private:
  friend class ConfigLoader;  ///< from_json_text's one-pass reader

  /// Ensures tenant 0 exists for the v1-compat entry points.
  TenantId ensure_default_tenant();

  OwnedEntries owned_;               ///< flat, tenant-tagged
  std::vector<TenantInfo> tenants_;  ///< index == id
};

}  // namespace artemis::core
