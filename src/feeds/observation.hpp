// The unit of monitoring data ARTEMIS consumes.
//
// Every source — streaming collectors, legacy batch archives, looking
// glasses — reduces to a stream of Observations: "vantage AS V was seen
// routing/announcing prefix P via path X at event time T, and ARTEMIS
// learned this at delivery time D". Detection latency is exactly
// D - (hijack launch time), so modeling D per source is what reproduces
// the paper's Table (E1/E3).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <type_traits>

#include "bgp/route.hpp"
#include "netbase/prefix.hpp"
#include "util/time.hpp"

namespace artemis::feeds {

enum class ObservationType : std::uint8_t {
  kAnnouncement,  ///< an UPDATE announcing the prefix
  kWithdrawal,    ///< an UPDATE withdrawing the prefix
  kRouteState,    ///< a point-in-time best route (LG answer or RIB dump)
};

std::string_view to_string(ObservationType t);

struct Observation {
  ObservationType type = ObservationType::kAnnouncement;
  /// Which feed produced this ("ris-live", "bgpmon", "periscope",
  /// "batch-updates", "batch-rib"). Benches group by this label.
  std::string source;
  /// The vantage-point AS whose view this is.
  bgp::Asn vantage = bgp::kNoAsn;
  net::Prefix prefix;
  /// Attributes as exported by the vantage (empty for withdrawals).
  bgp::PathAttributes attrs;
  /// When the vantage point saw the event.
  SimTime event_time;
  /// When ARTEMIS received the observation (>= event_time).
  SimTime delivered_at;

  bgp::Asn origin_as() const { return attrs.as_path.origin_as(); }
  SimDuration feed_lag() const { return delivered_at - event_time; }
  std::string to_string() const;
};

// Feeds hand observations between pipeline stages by span and move them
// into queues; a throwing move would tear a batch in half, so the hot
// handoff relies on this holding for every member (string, path vector,
// prefix, timestamps).
static_assert(std::is_nothrow_move_constructible_v<Observation>);
static_assert(std::is_nothrow_move_assignable_v<Observation>);

/// Batch-first consumer: one call per delivered batch. The span is only
/// valid for the duration of the call; consumers that keep observations
/// must copy (or move from their own staging buffer).
using ObservationBatchHandler = std::function<void(std::span<const Observation>)>;

}  // namespace artemis::feeds
