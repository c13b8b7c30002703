#include "artemis/config.hpp"

#include <array>
#include <initializer_list>
#include <optional>
#include <stdexcept>

#include "json/reader.hpp"

namespace artemis::core {

namespace {

json::Value mitigation_to_json(const MitigationPolicy& policy) {
  json::Object mitigation;
  mitigation["deaggregation_floor"] =
      json::Value(static_cast<std::int64_t>(policy.deaggregation_floor));
  mitigation["reannounce_exact"] = json::Value(policy.reannounce_exact);
  mitigation["auto_mitigate"] = json::Value(policy.auto_mitigate);
  return json::Value(std::move(mitigation));
}

json::Value owned_entry_to_json(const OwnedPrefix& owned) {
  json::Object entry;
  entry["prefix"] = json::Value(owned.prefix.to_string());
  json::Array origins;
  for (const auto asn : owned.legitimate_origins) {
    origins.emplace_back(static_cast<std::int64_t>(asn));
  }
  entry["origins"] = json::Value(std::move(origins));
  if (!owned.legitimate_neighbors.empty()) {
    json::Array neighbors;
    for (const auto asn : owned.legitimate_neighbors) {
      neighbors.emplace_back(static_cast<std::int64_t>(asn));
    }
    entry["neighbors"] = json::Value(std::move(neighbors));
  }
  return json::Value(std::move(entry));
}

}  // namespace

TenantId Config::add_tenant(std::string name, MitigationPolicy mitigation) {
  if (name.empty()) throw std::invalid_argument("tenant name must not be empty");
  for (const auto& tenant : tenants_) {
    if (tenant.name == name) {
      throw std::invalid_argument("duplicate tenant name: " + name);
    }
  }
  const auto id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(TenantInfo{id, std::move(name), mitigation});
  return id;
}

TenantId Config::ensure_default_tenant() {
  if (tenants_.empty()) return add_tenant("default");
  return kDefaultTenantId;
}

void Config::add_owned(TenantId tenant, OwnedPrefix owned) {
  if (tenant >= tenants_.size()) {
    throw std::invalid_argument("unknown tenant id");
  }
  if (owned.legitimate_origins.empty()) {
    throw std::invalid_argument("owned prefix needs at least one legitimate origin");
  }
  owned.tenant = tenant;
  owned_.push_back(std::move(owned));
}

void Config::add_owned(OwnedPrefix owned) {
  add_owned(ensure_default_tenant(), std::move(owned));
}

MitigationPolicy& Config::mitigation() {
  return tenants_[ensure_default_tenant()].mitigation;
}

const MitigationPolicy& Config::mitigation() const {
  static const MitigationPolicy kDefault{};
  return tenants_.empty() ? kDefault : tenants_.front().mitigation;
}

std::shared_ptr<const OwnershipTable> Config::build_table() const& {
  return Config(*this).build_table();
}

std::shared_ptr<const OwnershipTable> Config::build_table() && {
  if (tenants_.empty()) {
    // Even an empty config snapshots with the default tenant, so tenant
    // id 0 always resolves to a policy.
    tenants_.push_back(TenantInfo{kDefaultTenantId, "default", MitigationPolicy{}});
  }
  return std::make_shared<const OwnershipTable>(std::move(owned_), std::move(tenants_));
}

/// from_json_text's one pass: entries go straight into the Config as the
/// reader reaches them, in whatever member order the text uses.
///
/// Fault order is the contract a DOM loader gives for free: it parses
/// the whole text first (so any syntax error wins), then walks the
/// schema in a fixed order. Here a syntax error still throws at once,
/// but a schema fault is only ranked by where that walk would meet it;
/// the lowest-ranked one is thrown after the text has been read.
class ConfigLoader {
 public:
  explicit ConfigLoader(std::string_view text) : in_(text) {}

  Config load() {
    if (in_.peek() != json::Type::kObject) {
      in_.skip_value();
      in_.finish();
      throw json::JsonError("config must be a JSON object at offset 0");
    }
    unsigned seen = 0;
    std::int64_t version = 0;
    bool version_read = false;
    std::size_t version_at = 0;
    std::string_view key;
    in_.begin_object();
    while (in_.next_member(key)) {
      if (key == "schema_version") {
        once(seen, kVersionMember, key);
        version_read = read_int(version, Rank{0}, key);
        version_at = value_at_;
      } else if (key == "tenants") {
        once(seen, kTenantsMember, key);
        // A v2 document: the v1 members read so far do not count.
        config_ = Config{};
        if (fault_ && fault_->rank[0] >= 2) fault_.reset();
        v2_ = true;
        read_tenants();
      } else if (key == "prefixes") {
        once(seen, kPrefixesMember, key);
        if (v2_) {
          in_.skip_value();
        } else {
          read_entries(kDefaultTenantId);
        }
      } else if (key == "mitigation") {
        once(seen, kMitigationMember, key);
        if (v2_) {
          in_.skip_value();
        } else {
          config_.mitigation() = read_mitigation();
        }
      } else {
        in_.skip_value();
      }
    }
    in_.finish();
    if (version_read && version != (v2_ ? 2 : 1)) {
      if (v2_) {
        fault(Rank{1}, false, version_at, {"\"tenants\" requires schema_version 2"});
      } else {
        fault(Rank{1}, false, version_at,
              {"schema_version ", std::to_string(version), " requires a \"tenants\" array"});
      }
    }
    if (!v2_ && (seen & kPrefixesMember) == 0) {
      fault(Rank{3}, true, in_.offset(), {"missing key: prefixes"});
    }
    if (fault_) {
      if (fault_->json) throw json::JsonError(fault_->message);
      throw std::invalid_argument(fault_->message);
    }
    return std::move(config_);
  }

 private:
  /// Where the DOM walk meets a fault, compared lexicographically:
  ///   {0} schema_version mistyped, {1} version/schema mismatch;
  ///   v1: {2, field} mitigation, {3} prefixes, {4, entry, part, element};
  ///   v2: {2} tenants, {3, tenant, 0, field} mitigation, {3, tenant, 1}
  ///       name, {3, tenant, 2} name rejected, {3, tenant, 3} prefixes,
  ///       {3, tenant, 4, entry, part, element}.
  using Rank = std::array<std::uint64_t, 6>;

  /// The parts of one owned entry, in the order the walk checks them.
  enum EntryPart : std::uint64_t {
    kPrefixPart,
    kOriginsPart,
    kOriginPart,
    kNeighborsPart,
    kNeighborPart,
    kNoOriginPart,
  };

  enum Member : unsigned {
    kVersionMember = 1,
    kTenantsMember = 2,
    kPrefixesMember = 4,
    kMitigationMember = 8,
    kNameMember = 16,
    kPrefixMember = 32,
    kOriginsMember = 64,
    kNeighborsMember = 128,
    kFloorMember = 256,
    kReannounceMember = 512,
    kAutoMember = 1024,
  };

  struct Fault {
    Rank rank{};
    bool json = false;  ///< json::JsonError, else std::invalid_argument
    std::string message;
  };

  Rank mitigation_rank(std::uint64_t field) const {
    return v2_ ? Rank{3, tenant_, 0, field} : Rank{2, field};
  }
  Rank prefixes_rank() const { return v2_ ? Rank{3, tenant_, 3} : Rank{3}; }
  Rank entry_rank(std::uint64_t part, std::uint64_t element = 0) const {
    return v2_ ? Rank{3, tenant_, 4, entry_, part, element}
               : Rank{4, entry_, part, element};
  }

  /// Keeps the fault if it ranks below the one held; its message is the
  /// concatenated `parts` and the offset.
  void fault(const Rank& rank, bool json, std::size_t at,
             std::initializer_list<std::string_view> parts) {
    if (fault_ && !(rank < fault_->rank)) return;
    std::string message;
    for (const std::string_view part : parts) message += part;
    message += " at offset " + std::to_string(at);
    fault_ = Fault{rank, json, std::move(message)};
  }

  /// A member a config object uses may appear once in it.
  void once(unsigned& seen, Member member, std::string_view key) {
    if ((seen & member) != 0) in_.fail("repeated member \"" + std::string(key) + "\"");
    seen |= member;
  }

  json::Type peek() {
    const json::Type type = in_.peek();
    value_at_ = in_.offset();
    return type;
  }

  /// True when the next value has `type`. Otherwise the value is skipped
  /// and a JsonError fault is kept at `rank`, as Value's typed accessors
  /// (and `at` on a non-object) would throw.
  bool expect(json::Type type, const Rank& rank, std::string_view what) {
    if (peek() == type) return true;
    fault(rank, true, value_at_, {what, ": expected ", json::to_string(type)});
    in_.skip_value();
    return false;
  }

  /// An integer value as Value::as_int reads it; a mistyped or
  /// non-integer value is a JsonError fault at `rank`.
  bool read_int(std::int64_t& out, const Rank& rank, std::string_view what) {
    if (!expect(json::Type::kNumber, rank, what)) return false;
    if (!in_.read_int(out)) {
      fault(rank, true, value_at_, {what, ": not an integer"});
      return false;
    }
    return true;
  }

  void read_bool(bool& out, const Rank& rank, std::string_view what) {
    if (expect(json::Type::kBool, rank, what)) out = in_.read_bool();
  }

  MitigationPolicy read_mitigation() {
    MitigationPolicy policy;
    // Like Value::find on a non-object: nothing found, defaults kept.
    if (peek() != json::Type::kObject) {
      in_.skip_value();
      return policy;
    }
    unsigned seen = 0;
    std::string_view key;
    in_.begin_object();
    while (in_.next_member(key)) {
      if (key == "deaggregation_floor") {
        once(seen, kFloorMember, key);
        std::int64_t floor = 0;
        if (!read_int(floor, mitigation_rank(0), key)) continue;
        // Range-check the 64-bit value, then narrow.
        if (floor < 1 || floor > 32) {
          fault(mitigation_rank(0), false, value_at_, {key, ": out of range"});
        } else {
          policy.deaggregation_floor = static_cast<int>(floor);
        }
      } else if (key == "reannounce_exact") {
        once(seen, kReannounceMember, key);
        read_bool(policy.reannounce_exact, mitigation_rank(1), key);
      } else if (key == "auto_mitigate") {
        once(seen, kAutoMember, key);
        read_bool(policy.auto_mitigate, mitigation_rank(2), key);
      } else {
        in_.skip_value();
      }
    }
    return policy;
  }

  void read_tenants() {
    if (!expect(json::Type::kArray, Rank{2}, "tenants")) return;
    in_.begin_array();
    for (tenant_ = 0; in_.next_element(); ++tenant_) read_tenant();
  }

  void read_tenant() {
    // Registered before its members are read, so its entries carry its
    // id whatever the member order; the name is checked at the end.
    const auto id = static_cast<TenantId>(config_.tenants_.size());
    config_.tenants_.push_back(TenantInfo{id, {}, {}});
    if (!expect(json::Type::kObject, Rank{3, tenant_, 1}, "tenant")) return;
    const std::size_t at = value_at_;
    unsigned seen = 0;
    bool named = false;
    std::string_view key;
    in_.begin_object();
    while (in_.next_member(key)) {
      if (key == "name") {
        once(seen, kNameMember, key);
        if (expect(json::Type::kString, Rank{3, tenant_, 1}, key)) {
          config_.tenants_[id].name = in_.read_string();
          named = true;
        }
      } else if (key == "mitigation") {
        once(seen, kMitigationMember, key);
        config_.tenants_[id].mitigation = read_mitigation();
      } else if (key == "prefixes") {
        once(seen, kPrefixesMember, key);
        read_entries(id);
      } else {
        in_.skip_value();
      }
    }
    const std::string& name = config_.tenants_[id].name;
    if ((seen & kNameMember) == 0) {
      fault(Rank{3, tenant_, 1}, true, at, {"missing key: name"});
    } else if (named && name.empty()) {
      fault(Rank{3, tenant_, 2}, false, at, {"tenant name must not be empty"});
    } else if (named) {
      for (TenantId other = 0; other < id; ++other) {
        if (config_.tenants_[other].name == name) {
          fault(Rank{3, tenant_, 2}, false, at, {"duplicate tenant name: ", name});
          break;
        }
      }
    }
    if ((seen & kPrefixesMember) == 0) {
      fault(Rank{3, tenant_, 3}, true, at, {"missing key: prefixes"});
    }
  }

  void read_entries(TenantId tenant) {
    if (!expect(json::Type::kArray, prefixes_rank(), "prefixes")) return;
    in_.begin_array();
    for (entry_ = 0; in_.next_element(); ++entry_) read_entry(tenant);
  }

  /// One {"prefix","origins","neighbors"} entry — shared by both schemas.
  void read_entry(TenantId tenant) {
    if (!expect(json::Type::kObject, entry_rank(kPrefixPart), "entry")) return;
    const std::size_t at = value_at_;
    if (!v2_) config_.ensure_default_tenant();
    OwnedPrefix& owned = config_.owned_.emplace_back();
    owned.tenant = tenant;
    unsigned seen = 0;
    std::string_view key;
    in_.begin_object();
    while (in_.next_member(key)) {
      if (key == "prefix") {
        once(seen, kPrefixMember, key);
        read_prefix(owned.prefix);
      } else if (key == "origins") {
        once(seen, kOriginsMember, key);
        read_asns(owned.legitimate_origins, kOriginsPart, key);
      } else if (key == "neighbors") {
        once(seen, kNeighborsMember, key);
        read_asns(owned.legitimate_neighbors, kNeighborsPart, key);
      } else {
        in_.skip_value();
      }
    }
    if ((seen & kPrefixMember) == 0) {
      fault(entry_rank(kPrefixPart), true, at, {"missing key: prefix"});
    }
    if ((seen & kOriginsMember) == 0) {
      fault(entry_rank(kOriginsPart), true, at, {"missing key: origins"});
    } else if (owned.legitimate_origins.empty()) {
      fault(entry_rank(kNoOriginPart), false, at,
            {"owned prefix needs at least one legitimate origin"});
    }
  }

  void read_prefix(net::Prefix& out) {
    if (!expect(json::Type::kString, entry_rank(kPrefixPart), "prefix")) return;
    const std::string_view text = in_.read_string();
    if (const auto prefix = net::Prefix::parse(text)) {
      out = *prefix;
    } else {
      fault(entry_rank(kPrefixPart), false, value_at_, {"bad prefix: ", text});
    }
  }

  /// An "origins" / "neighbors" array; `part` is its EntryPart, its
  /// elements rank at part + 1.
  void read_asns(std::set<bgp::Asn>& out, EntryPart part, std::string_view what) {
    if (!expect(json::Type::kArray, entry_rank(part), what)) return;
    in_.begin_array();
    for (std::uint64_t k = 0; in_.next_element(); ++k) {
      std::int64_t asn = 0;
      if (!read_int(asn, entry_rank(part + 1, k), what)) continue;
      if (asn <= 0 || asn > 0xFFFFFFFFLL) {
        fault(entry_rank(part + 1, k), false, value_at_, {what, ": bad ASN"});
      } else {
        out.insert(static_cast<bgp::Asn>(asn));
      }
    }
  }

  json::Reader in_;
  Config config_;
  std::optional<Fault> fault_;
  std::size_t value_at_ = 0;  ///< offset of the value last peeked
  bool v2_ = false;
  std::uint64_t tenant_ = 0;  ///< index of the tenant being read (v2)
  std::uint64_t entry_ = 0;   ///< index of the entry in its prefixes list
};

Config Config::from_json_text(std::string_view text) { return ConfigLoader(text).load(); }

json::Value Config::to_json() const {
  const bool v1 = tenants_.size() <= 1 &&
                  (tenants_.empty() || tenants_.front().name == "default");
  if (v1) {
    json::Array prefixes;
    for (const auto& owned : owned_) prefixes.push_back(owned_entry_to_json(owned));
    json::Object doc;
    doc["prefixes"] = json::Value(std::move(prefixes));
    doc["mitigation"] = mitigation_to_json(mitigation());
    return json::Value(std::move(doc));
  }
  json::Array tenants;
  for (const auto& tenant : tenants_) {
    json::Object tenant_doc;
    tenant_doc["name"] = json::Value(tenant.name);
    json::Array prefixes;
    for (const auto& owned : owned_) {
      if (owned.tenant == tenant.id) prefixes.push_back(owned_entry_to_json(owned));
    }
    tenant_doc["prefixes"] = json::Value(std::move(prefixes));
    tenant_doc["mitigation"] = mitigation_to_json(tenant.mitigation);
    tenants.emplace_back(std::move(tenant_doc));
  }
  json::Object doc;
  doc["schema_version"] = json::Value(static_cast<std::int64_t>(2));
  doc["tenants"] = json::Value(std::move(tenants));
  return json::Value(std::move(doc));
}

}  // namespace artemis::core
