// The DOM config loader, kept as a test oracle.
//
// Config::from_json_text reads the text in one pass with json::Reader.
// Before it, configs loaded through json::parse and a walk over the
// resulting json::Value; that walk lives on here, unchanged except for
// the deaggregation_floor range check (64-bit value checked, then
// narrowed), so tests can hold the one-pass loader to the exact
// behaviour of the DOM one (tests/config_diff_test.cpp).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "artemis/config.hpp"
#include "json/json.hpp"

namespace artemis::config_oracle {

inline bgp::Asn parse_asn(const json::Value& value, const char* what) {
  const auto asn = value.as_int();
  if (asn <= 0 || asn > 0xFFFFFFFFLL) {
    throw std::invalid_argument(std::string("bad ") + what + " ASN");
  }
  return static_cast<bgp::Asn>(asn);
}

struct OwnedEntry {
  net::Prefix prefix;
  std::vector<bgp::Asn> origins;
  std::vector<bgp::Asn> neighbors;
};

/// One {"prefix","origins","neighbors"} entry — shared by both schemas.
inline OwnedEntry parse_owned_entry(const json::Value& entry) {
  OwnedEntry owned;
  const auto prefix_text = entry.at("prefix").as_string();
  const auto prefix = net::Prefix::parse(prefix_text);
  if (!prefix) throw std::invalid_argument("bad prefix: " + prefix_text);
  owned.prefix = *prefix;
  for (const auto& origin : entry.at("origins").as_array()) {
    owned.origins.push_back(parse_asn(origin, "origin"));
  }
  if (const auto* neighbors = entry.find("neighbors")) {
    for (const auto& neighbor : neighbors->as_array()) {
      owned.neighbors.push_back(parse_asn(neighbor, "neighbor"));
    }
  }
  return owned;
}

inline core::MitigationPolicy parse_mitigation(const json::Value& mitigation) {
  core::MitigationPolicy policy;
  const std::int64_t floor = mitigation.get_int("deaggregation_floor", 24);
  if (floor < 1 || floor > 32) {
    throw std::invalid_argument("deaggregation_floor out of range");
  }
  policy.deaggregation_floor = static_cast<int>(floor);
  policy.reannounce_exact = mitigation.get_bool("reannounce_exact", true);
  policy.auto_mitigate = mitigation.get_bool("auto_mitigate", true);
  return policy;
}

/// Loads either schema (v2 when a "tenants" member is present, v1
/// otherwise) from a parsed document.
inline core::Config from_json(const json::Value& doc) {
  core::Config config;
  const auto* tenants = doc.find("tenants");
  const std::int64_t version = doc.get_int("schema_version", tenants ? 2 : 1);
  if (tenants == nullptr) {
    // v1: single-operator shape, implicit default tenant.
    if (version != 1) {
      throw std::invalid_argument("schema_version " + std::to_string(version) +
                                  " requires a \"tenants\" array");
    }
    if (const auto* mitigation = doc.find("mitigation")) {
      config.mitigation() = parse_mitigation(*mitigation);
    }
    for (const auto& entry : doc.at("prefixes").as_array()) {
      const OwnedEntry owned = parse_owned_entry(entry);
      config.add_owned(owned.prefix, owned.origins, owned.neighbors);
    }
    return config;
  }
  if (version != 2) {
    throw std::invalid_argument("\"tenants\" requires schema_version 2");
  }
  for (const auto& tenant_doc : tenants->as_array()) {
    core::MitigationPolicy policy;
    if (const auto* mitigation = tenant_doc.find("mitigation")) {
      policy = parse_mitigation(*mitigation);
    }
    const core::TenantId id =
        config.add_tenant(tenant_doc.at("name").as_string(), policy);
    for (const auto& entry : tenant_doc.at("prefixes").as_array()) {
      const OwnedEntry owned = parse_owned_entry(entry);
      config.add_owned(id, owned.prefix, owned.origins, owned.neighbors);
    }
  }
  return config;
}

inline core::Config from_json_text(std::string_view text) {
  return from_json(json::parse(text));
}

}  // namespace artemis::config_oracle
