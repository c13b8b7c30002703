// Seeded input generator for the bytes-to-alerts benchmark.
//
// Everything a workload consumes is made here from the workload seed:
// ownership configs (the 16-prefix single-operator config and the
// 1,024,000-prefix / 1,000-tenant config, each with a reload variant
// that adds one tenant), dual-stack MRT update streams with planted
// hijacks, and the per-hijack ground truth. The generator uses its own
// PRNG, so the same seed gives byte-identical inputs on every commit.
//
// Address plan (owned, late-tenant and background space never overlap,
// so only planted routes can touch owned space):
//   small config  owned  10.(16k).0.0/16 (k<10), 2001:db8:k000::/40 (k=1..4)
//                 late   10.200.0.0/16, 2001:db8:f000::/40
//   large config  owned  /23s in 32.0.0.0/3 (768,000), /48s in 2400::/16 (256,000)
//                 late   /24s in 160.0.0.0/14, /48s in 2600::/16 (1,024)
//   background           64.0.0.0/2 (/16-/24), 2a00::/16 (/32-/48)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "artemis/alert.hpp"
#include "bgp/types.hpp"
#include "netbase/prefix.hpp"

namespace perfbench::gen {

/// splitmix64: tiny, seedable, and pinned here so inputs never change
/// when the library's own RNG does.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }
};

enum class Scale : std::uint8_t {
  kSmall,  ///< 14 + 2 prefixes: v1 config, reload adds tenant "late"
  kLarge,  ///< 1,024,000 prefixes in 1,000 tenants, reload adds "late"
};

class Ownership {
 public:
  explicit Ownership(Scale scale) : scale_(scale) {}

  /// Prefixes of the initial config (every tenant but "late").
  std::size_t count() const;
  artemis::net::Prefix prefix(std::size_t i) const;
  artemis::core::TenantId tenant(std::size_t i) const;
  artemis::bgp::Asn origin(std::size_t i) const;

  /// The tenant the reload config adds; hijacked only after the reload.
  std::size_t late_count() const;
  artemis::net::Prefix late_prefix(std::size_t k) const;
  artemis::core::TenantId late_tenant() const;
  artemis::bgp::Asn late_origin() const;

  /// A covering prefix whose only covered owned entry is `p` (so the
  /// super-prefix alert's tenant is unambiguous), if the plan has one.
  std::optional<artemis::net::Prefix> lone_super(std::size_t i) const;

  /// The config JSON: initial (v1 for kSmall, v2 for kLarge) or the
  /// reload variant (v2, plus tenant "late").
  std::string config_text(bool reload) const;
  /// The mitigation policy config_text() gives each tenant, by tenant id
  /// (reload config, so "late" included).
  std::vector<artemis::core::MitigationPolicy> policies() const;

 private:
  Scale scale_;
};

/// One planted hijack and the alert it must raise.
struct Hijack {
  artemis::core::HijackType type = artemis::core::HijackType::kExactOrigin;
  artemis::net::Prefix observed;
  artemis::bgp::Asn offender = 0;
  artemis::core::TenantId tenant = 0;
  std::uint64_t record = 0;  ///< index of the first record carrying it
  std::uint64_t obs = 0;     ///< observations before that record
  std::int64_t due_us = 0;   ///< schedule time of that record (live only)
  bool late = false;         ///< targets the reload-added tenant

  artemis::core::AlertKey key() const { return {type, observed, offender, tenant}; }
};

struct Phase {
  double seconds = 0;
  double obs_per_s = 0;
};

struct StreamSpec {
  /// Record budget when `phases` is empty (untimed archive/journal input).
  std::uint64_t records = 0;
  /// Timed (live) input: records are due when their observations arrive
  /// at the phase's rate, and generation stops at the end of the last phase.
  std::vector<Phase> phases;
  /// Planting clock between hijacks: records (untimed) or seconds (timed).
  double hijack_every = 4096;
  /// Probability that a route is a legitimate announcement of owned space.
  double owned_legit_p = 0.0;
  /// Hijacks at or after `late_from` (records, or seconds when timed)
  /// target the reload-added tenant with this probability.
  double late_from = 0;
  double late_share = 0.25;
  /// Hijack routes repeat from several peers like every other route
  /// (dedup work); off = one record per hijack (sparse live streams).
  bool burst_hijacks = true;
};

struct Stream {
  std::vector<std::uint8_t> mrt;
  std::vector<std::uint64_t> record_end;  ///< byte offset after each record
  std::vector<std::int64_t> due_us;       ///< per record (timed streams)
  std::vector<Hijack> hijacks;
  std::uint64_t records = 0;
  std::uint64_t skipped_records = 0;  ///< AS_SET records (no observations)
  std::uint64_t observations = 0;
  std::uint64_t owned_observations = 0;  ///< observations of owned space
  std::vector<artemis::net::Prefix> prefixes;  ///< distinct announced prefixes
};

/// MRT header time of record 0 in untimed streams, and of t=0 in timed ones.
inline constexpr std::int64_t kBaseUs = 1'700'000'000'000'000;

Stream generate(const Ownership& ownership, const StreamSpec& spec, std::uint64_t seed);

/// FNV-1a digest of a run's generated inputs (MRT bytes and both config
/// texts), printed with every result: equal seeds must print equal
/// digests.
std::string input_digest(const Stream& stream, const std::string& config,
                         const std::string& reload_config);

}  // namespace perfbench::gen
