#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "mrt/mrt.hpp"

namespace perfbench::gen {

using artemis::bgp::Asn;
using artemis::core::HijackType;
using artemis::core::TenantId;
using artemis::net::IpAddress;
using artemis::net::Prefix;

std::uint64_t Rng::next() {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

// ---- large plan: owned slots are scattered by an odd multiplier, so the
// owned set is a permutation image and the inverse tells, for any slot,
// whether (and which) owned prefix sits there.
constexpr std::size_t kLargeTenants = 1000;
constexpr std::size_t kPerTenant = 1024;
constexpr std::size_t kLargeCount = kLargeTenants * kPerTenant;  // 1,024,000
constexpr std::size_t kLargeV4 = kLargeCount / 4 * 3;            // 768,000
constexpr std::size_t kLargeV6 = kLargeCount / 4;                // 256,000
constexpr std::uint64_t kV4Slots = 1ull << 20;  // /23s in 32.0.0.0/3
constexpr std::uint64_t kV6Slots = 1ull << 32;  // /48s in 2400::/16
constexpr std::uint64_t kM4 = 0x9E3779B1ull;
constexpr std::uint64_t kM6 = 0x85EBCA6Bull;

constexpr std::uint64_t inverse_odd(std::uint64_t m) {
  std::uint64_t inv = m;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return inv;
}

std::uint64_t v4_slot(std::size_t j) { return (j * kM4) & (kV4Slots - 1); }
std::uint64_t v6_slot(std::size_t j) { return (j * kM6) & (kV6Slots - 1); }
bool v4_slot_owned(std::uint64_t slot) {
  return ((slot * inverse_odd(kM4)) & (kV4Slots - 1)) < kLargeV4;
}
bool v6_slot_owned(std::uint64_t slot) {
  return ((slot * inverse_odd(kM6)) & (kV6Slots - 1)) < kLargeV6;
}

Prefix v4(std::uint32_t addr, int len) { return Prefix(IpAddress::v4(addr), len); }
Prefix v6(std::uint64_t hi, int len) { return Prefix(IpAddress::v6(hi, 0), len); }

constexpr std::uint64_t kDocV6 = 0x20010db8ull << 32;  // 2001:db8::/32

// Traffic shape. Every proportion here (and the prefix-length tables in
// background_prefix) is an assumption chosen so that each decode and
// detection path runs at a plausible mix; none is calibrated against a
// real RIS or RouteViews update archive (perfbench/README.md lists them).
constexpr double kBackgroundV4P = 0.8;       ///< background prefix is IPv4
constexpr double kRouteBurstP = 0.5;         ///< a route repeats from 2-4 peers
constexpr double kWithdrawalP = 0.125;       ///< a record also withdraws a prefix
constexpr double kAs2RecordP = 1.0 / 16;     ///< a record uses AS2 encoding
constexpr double kMpNextHop32P = 0.25;       ///< a 32-byte (global + link-local) MP next hop
constexpr std::uint64_t kAsSetEvery = 2000;  ///< records per AS_SET record

/// Random more-specific of `p`, 1..max_extra bits longer.
Prefix random_sub(const Prefix& p, int max_extra, Rng& rng) {
  const int len = std::min(p.max_length(), p.length() + 1 + static_cast<int>(rng.below(
                                                                 static_cast<std::uint64_t>(max_extra))));
  const auto [hi, lo] = p.address().words();
  const std::uint64_t noise = rng.next();
  if (p.is_v4()) {
    const std::uint32_t host = static_cast<std::uint32_t>(noise) &
                               (p.length() == 0 ? ~0u : (~0u >> p.length()));
    return v4(p.address().v4_value() | host, len);
  }
  const std::uint64_t host = p.length() >= 64 ? 0 : (noise >> p.length());
  return Prefix(IpAddress::v6(hi | host, lo), len);
}

Prefix background_prefix(Rng& rng) {
  if (rng.chance(kBackgroundV4P)) {
    static constexpr int kLens[] = {16, 18, 19, 20, 21, 22, 23, 24, 24, 24, 24, 24};
    const int len = kLens[rng.below(std::size(kLens))];
    return v4(0x40000000u | (static_cast<std::uint32_t>(rng.next()) & 0x3FFFFFFFu), len);
  }
  static constexpr int kLens6[] = {32, 36, 40, 44, 48, 48, 48};
  const int len = kLens6[rng.below(std::size(kLens6))];
  return v6((0x2a00ull << 48) | (rng.next() & 0x0000FFFFFFFFFFFFull), len);
}

void append_entry(std::string& out, const Prefix& prefix, Asn origin) {
  out += "{\"prefix\":\"";
  out += prefix.to_string();
  out += "\",\"origins\":[";
  out += std::to_string(origin);
  out += "]}";
}

constexpr const char* kMitigation =
    "\"mitigation\":{\"deaggregation_floor\":24,\"reannounce_exact\":true,"
    "\"auto_mitigate\":true}";

}  // namespace

// ------------------------------------------------------------- Ownership

std::size_t Ownership::count() const {
  return scale_ == Scale::kSmall ? 14 : kLargeCount;
}

Prefix Ownership::prefix(std::size_t i) const {
  if (scale_ == Scale::kSmall) {
    if (i < 10) return v4(0x0A000000u | (static_cast<std::uint32_t>(16 * i) << 16), 16);
    return v6(kDocV6 | (static_cast<std::uint64_t>(i - 9) << 28), 40);
  }
  const std::size_t q = i / 4;
  const std::size_t r = i % 4;
  if (r < 3) {
    return v4(0x20000000u + static_cast<std::uint32_t>(v4_slot(q * 3 + r) * 512), 23);
  }
  return v6((0x2400ull << 48) | (v6_slot(q) << 16), 48);
}

TenantId Ownership::tenant(std::size_t i) const {
  return scale_ == Scale::kSmall ? 0 : static_cast<TenantId>(i / kPerTenant);
}

Asn Ownership::origin(std::size_t i) const {
  return scale_ == Scale::kSmall ? 65001 : static_cast<Asn>(100000 + tenant(i));
}

std::size_t Ownership::late_count() const {
  return scale_ == Scale::kSmall ? 2 : kPerTenant;
}

Prefix Ownership::late_prefix(std::size_t k) const {
  if (scale_ == Scale::kSmall) {
    return k == 0 ? v4(0x0AC80000u, 16) : v6(kDocV6 | (0xFull << 28), 40);
  }
  if (k % 4 != 3) return v4(0xA0000000u + static_cast<std::uint32_t>(k * 256), 24);
  return v6((0x2600ull << 48) | (static_cast<std::uint64_t>(k) << 16), 48);
}

TenantId Ownership::late_tenant() const {
  return scale_ == Scale::kSmall ? 1 : static_cast<TenantId>(kLargeTenants);
}

Asn Ownership::late_origin() const { return scale_ == Scale::kSmall ? 65100 : 99999; }

std::optional<Prefix> Ownership::lone_super(std::size_t i) const {
  const Prefix p = prefix(i);
  if (scale_ == Scale::kSmall) {
    // Owned prefixes are 16 /16s (or /40s) apart: 4 bits up covers one.
    return Prefix(p.address(), p.length() - 4);
  }
  if (p.is_v4()) {
    const std::uint64_t slot = (p.address().v4_value() - 0x20000000u) / 512;
    if (v4_slot_owned(slot ^ 1)) return std::nullopt;
  } else {
    const std::uint64_t slot = (p.address().words().first >> 16) & (kV6Slots - 1);
    if (v6_slot_owned(slot ^ 1)) return std::nullopt;
  }
  return Prefix(p.address(), p.length() - 1);
}

std::string Ownership::config_text(bool reload) const {
  std::string out;
  out.reserve(scale_ == Scale::kSmall ? 4096 : 56u << 20);
  if (scale_ == Scale::kSmall && !reload) {
    out += "{\"prefixes\":[";
    for (std::size_t i = 0; i < count(); ++i) {
      if (i != 0) out += ',';
      append_entry(out, prefix(i), origin(i));
    }
    out += "],";
    out += kMitigation;
    out += "}";
    return out;
  }
  out += "{\"schema_version\":2,\"tenants\":[";
  const std::size_t tenants = scale_ == Scale::kSmall ? 1 : kLargeTenants;
  const std::size_t per_tenant = count() / tenants;
  char name[32];
  for (std::size_t t = 0; t < tenants; ++t) {
    if (t != 0) out += ',';
    if (scale_ == Scale::kSmall) {
      out += "{\"name\":\"default\",\"prefixes\":[";
    } else {
      std::snprintf(name, sizeof(name), "t%04zu", t);
      out += "{\"name\":\"";
      out += name;
      out += "\",\"prefixes\":[";
    }
    for (std::size_t i = t * per_tenant; i < (t + 1) * per_tenant; ++i) {
      if (i != t * per_tenant) out += ',';
      append_entry(out, prefix(i), origin(i));
    }
    out += "],";
    out += kMitigation;
    out += '}';
  }
  if (reload) {
    out += ",{\"name\":\"late\",\"prefixes\":[";
    for (std::size_t k = 0; k < late_count(); ++k) {
      if (k != 0) out += ',';
      append_entry(out, late_prefix(k), late_origin());
    }
    out += "],";
    out += kMitigation;
    out += '}';
  }
  out += "]}";
  return out;
}

std::vector<artemis::core::MitigationPolicy> Ownership::policies() const {
  // kMitigation spells out the library defaults for every tenant.
  return std::vector<artemis::core::MitigationPolicy>(late_tenant() + 1);
}

// ---------------------------------------------------------------- stream

namespace {

constexpr Asn kTransit[] = {3356, 1299, 174, 2914, 6939, 6453, 3257, 6762, 701, 7018};
constexpr std::size_t kPeers = 24;

Asn peer_asn(std::size_t i) {
  // A mix of 2-byte and 4-byte collector peers.
  return i % 3 == 0 ? static_cast<Asn>(3000 + i) : static_cast<Asn>(396000 + i);
}

struct Route {
  std::vector<Prefix> announced;
  Asn origin = 0;
  Asn transit = 0;
};

}  // namespace

Stream generate(const Ownership& ownership, const StreamSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Stream out;
  const bool timed = !spec.phases.empty();
  double total_s = 0;
  for (const Phase& phase : spec.phases) total_s += phase.seconds;

  // Timed streams: phase bookkeeping for due times.
  std::size_t phase = 0;
  double phase_start_s = 0;
  std::uint64_t phase_obs = 0;
  auto clock_now = [&]() -> double {
    return timed ? phase_start_s + static_cast<double>(phase_obs) / spec.phases[phase].obs_per_s
                 : static_cast<double>(out.records);
  };
  auto finished = [&]() {
    return timed ? clock_now() >= total_s : out.records >= spec.records;
  };

  double next_hijack = spec.hijack_every * (0.5 + rng.unit());
  std::uint64_t next_as_set = kAsSetEvery;
  Asn next_offender = 210000;
  std::size_t hijacked_owned_cursor = 0;

  auto emit = [&](const std::vector<std::uint8_t>& bytes, std::uint64_t obs_count,
                  double due_s) {
    out.mrt.insert(out.mrt.end(), bytes.begin(), bytes.end());
    out.record_end.push_back(out.mrt.size());
    if (timed) out.due_us.push_back(static_cast<std::int64_t>(due_s * 1e6));
    ++out.records;
    out.observations += obs_count;
    if (timed) {
      phase_obs += obs_count;
      while (phase + 1 < spec.phases.size() &&
             clock_now() >= phase_start_s + spec.phases[phase].seconds) {
        phase_start_s += spec.phases[phase].seconds;
        ++phase;
        phase_obs = 0;
      }
    }
  };

  while (!finished()) {
    const double now = clock_now();
    if (out.records >= next_as_set) {
      next_as_set += kAsSetEvery;
      artemis::mrt::UpdateRecord rec;
      rec.peer_asn = peer_asn(rng.below(kPeers));
      rec.local_asn = 64512;
      rec.peer_ip = IpAddress::v4(0x0A000000u | static_cast<std::uint32_t>(rec.peer_asn & 0xFFFF));
      rec.timestamp = artemis::SimTime::at_micros(
          kBaseUs + (timed ? static_cast<std::int64_t>(now * 1e6)
                           : static_cast<std::int64_t>(out.records) * 250));
      rec.update.sender = rec.peer_asn;
      rec.update.announced.push_back(background_prefix(rng));
      rec.update.attrs.as_path = artemis::bgp::AsPath({rec.peer_asn, 3356, 64600});
      emit(artemis::mrt::encode_update_record_as_set(rec), 0, now);
      ++out.skipped_records;
      continue;
    }

    // Pick the route: a planted hijack when the planting clock says so,
    // else a legitimate owned announcement or background.
    Route route;
    bool touches_owned = true;
    route.transit = kTransit[rng.below(std::size(kTransit))];
    std::optional<Hijack> hijack;
    if (now >= next_hijack) {
      next_hijack += spec.hijack_every * (0.5 + rng.unit());
      Hijack h;
      h.offender = next_offender++;
      const bool late = now >= spec.late_from && spec.late_share > 0 &&
                        rng.chance(spec.late_share);
      Prefix owned;
      std::optional<Prefix> super;
      if (late) {
        owned = ownership.late_prefix(rng.below(ownership.late_count()));
        h.tenant = ownership.late_tenant();
        h.late = true;
      } else {
        // Walk the owned set with a random stride so large configs spread
        // hijacks over every tenant.
        hijacked_owned_cursor =
            (hijacked_owned_cursor + 1 + rng.below(4093)) % ownership.count();
        owned = ownership.prefix(hijacked_owned_cursor);
        h.tenant = ownership.tenant(hijacked_owned_cursor);
        super = ownership.lone_super(hijacked_owned_cursor);
      }
      const std::uint64_t pick = rng.below(3);
      if (pick == 0) {
        h.type = HijackType::kExactOrigin;
        h.observed = owned;
      } else if (pick == 1 || !super) {
        h.type = HijackType::kSubPrefix;
        h.observed =
            random_sub(owned, owned.is_v4() ? std::max(1, 24 - owned.length()) : 8, rng);
      } else {
        h.type = HijackType::kSuperPrefix;
        h.observed = *super;
      }
      route.announced.push_back(h.observed);
      route.origin = h.offender;
      h.record = out.records;
      h.obs = out.observations;
      hijack = h;
    } else if (rng.chance(spec.owned_legit_p)) {
      const std::size_t i = rng.below(ownership.count());
      const Prefix owned = ownership.prefix(i);
      route.announced.push_back(rng.chance(0.5) ? owned : random_sub(owned, 1, rng));
      route.origin = ownership.origin(i);
    } else {
      route.origin = static_cast<Asn>(1000 + rng.below(60000));
      touches_owned = false;
    }
    // 1-4 NLRI per record: pad with background prefixes.
    const std::size_t nlri = 1 + rng.below(4);
    while (route.announced.size() < nlri) route.announced.push_back(background_prefix(rng));
    for (const Prefix& p : route.announced) out.prefixes.push_back(p);

    // Route burst: the same route from several collector peers, back to back.
    const std::size_t burst =
        (hijack && !spec.burst_hijacks) || !rng.chance(kRouteBurstP) ? 1 : 2 + rng.below(3);
    const std::size_t first_peer = rng.below(kPeers);
    for (std::size_t b = 0; b < burst && !finished(); ++b) {
      const double due = clock_now();
      artemis::mrt::UpdateRecord rec;
      rec.peer_asn = peer_asn((first_peer + b) % kPeers);
      rec.local_asn = 64512;
      rec.peer_ip = IpAddress::v4(0x0A000000u | static_cast<std::uint32_t>(rec.peer_asn & 0xFFFF));
      rec.timestamp = artemis::SimTime::at_micros(
          kBaseUs + (timed ? static_cast<std::int64_t>(due * 1e6)
                           : static_cast<std::int64_t>(out.records) * 250));
      rec.update.sender = rec.peer_asn;
      rec.update.announced = route.announced;
      if (rng.chance(kWithdrawalP)) rec.update.withdrawn.push_back(background_prefix(rng));
      rec.update.attrs.as_path =
          artemis::bgp::AsPath({rec.peer_asn, route.transit, route.origin});
      const std::uint64_t obs_count =
          rec.update.announced.size() + rec.update.withdrawn.size();
      if (touches_owned) ++out.owned_observations;
      if (hijack && b == 0) {
        hijack->due_us = static_cast<std::int64_t>(due * 1e6);
        out.hijacks.push_back(*hijack);
      }
      artemis::mrt::UpdateEncodeOptions options;
      if (rng.chance(kMpNextHop32P)) options.mp_next_hop_len = 32;
      emit(rng.chance(kAs2RecordP) ? artemis::mrt::encode_update_record_as2(rec, options)
                                : artemis::mrt::encode_update_record(rec, options),
           obs_count, due);
    }
  }

  std::sort(out.prefixes.begin(), out.prefixes.end());
  out.prefixes.erase(std::unique(out.prefixes.begin(), out.prefixes.end()),
                     out.prefixes.end());
  return out;
}

std::string input_digest(const Stream& stream, const std::string& config,
                         const std::string& reload_config) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  };
  mix(stream.mrt.data(), stream.mrt.size());
  mix(reinterpret_cast<const std::uint8_t*>(config.data()), config.size());
  mix(reinterpret_cast<const std::uint8_t*>(reload_config.data()), reload_config.size());
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(h));
  return text;
}

}  // namespace perfbench::gen
