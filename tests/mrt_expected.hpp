// The kit for encode -> ObservationConverter round trips: a one-call
// conversion, and the oracle — the observations an MRT record must
// convert to, built from the very UpdateRecord / RibEntryRecord struct
// that was encoded, never from a second decoder.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "feeds/observation.hpp"
#include "mrt/mrt.hpp"
#include "mrt/observation_convert.hpp"

namespace artemis::mrt {

/// Everything one fresh default converter emits for an MRT stream.
struct Converted {
  std::vector<feeds::Observation> obs;
  ConvertFileStats stats;
};

inline Converted convert(std::span<const std::uint8_t> bytes) {
  ObservationConverter converter;
  Converted out;
  out.stats = converter.convert_file(bytes, [&](std::span<const feeds::Observation> batch) {
    out.obs.insert(out.obs.end(), batch.begin(), batch.end());
  });
  return out;
}

/// One observation as the default converter (per-peer "mrt:AS<peer>"
/// sources, zero delivery lag) must emit it.
inline feeds::Observation expected_obs(feeds::ObservationType type, bgp::Asn peer,
                                       const net::Prefix& prefix,
                                       const bgp::PathAttributes& attrs, SimTime at) {
  feeds::Observation obs;
  obs.type = type;
  obs.source = "mrt:AS" + std::to_string(peer);
  obs.vantage = peer;
  obs.prefix = prefix;
  if (type != feeds::ObservationType::kWithdrawal) obs.attrs = attrs;
  obs.event_time = at;
  obs.delivered_at = at;
  return obs;
}

/// What `rec` must convert to: announcements before withdrawals, v4
/// (classic fields) before v6 (MP attributes) within each — the
/// libBGPStream elem order. For a record encoded pre-AS4, `rec.peer_asn`
/// must fit 16 bits (a wide one travels as AS_TRANS).
inline std::vector<feeds::Observation> expected_observations(const UpdateRecord& rec) {
  std::vector<feeds::Observation> out;
  const auto add = [&](feeds::ObservationType type, const std::vector<net::Prefix>& prefixes,
                       bool v4) {
    for (const auto& p : prefixes) {
      if (p.is_v4() == v4) {
        out.push_back(expected_obs(type, rec.peer_asn, p, rec.update.attrs, rec.timestamp));
      }
    }
  };
  add(feeds::ObservationType::kAnnouncement, rec.update.announced, true);
  add(feeds::ObservationType::kAnnouncement, rec.update.announced, false);
  add(feeds::ObservationType::kWithdrawal, rec.update.withdrawn, true);
  add(feeds::ObservationType::kWithdrawal, rec.update.withdrawn, false);
  return out;
}

/// What a TABLE_DUMP_V2 snapshot must convert to: one route-state
/// observation per entry, stamped with the dump time (the record header),
/// not the entry's originated time.
inline std::vector<feeds::Observation> expected_observations(
    const std::vector<RibEntryRecord>& entries, SimTime dump_time) {
  std::vector<feeds::Observation> out;
  for (const auto& e : entries) {
    out.push_back(expected_obs(feeds::ObservationType::kRouteState, e.peer_asn,
                               e.route.prefix, e.route.attrs, dump_time));
  }
  return out;
}

inline void expect_observations(const std::vector<feeds::Observation>& actual,
                                const std::vector<feeds::Observation>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("observation " + std::to_string(i));
    EXPECT_EQ(actual[i].type, expected[i].type);
    EXPECT_EQ(actual[i].source, expected[i].source);
    EXPECT_EQ(actual[i].vantage, expected[i].vantage);
    EXPECT_EQ(actual[i].prefix, expected[i].prefix);
    EXPECT_EQ(actual[i].attrs.as_path, expected[i].attrs.as_path);
    EXPECT_TRUE(actual[i].attrs == expected[i].attrs);
    EXPECT_EQ(actual[i].event_time, expected[i].event_time);
    EXPECT_EQ(actual[i].delivered_at, expected[i].delivered_at);
  }
}

}  // namespace artemis::mrt
