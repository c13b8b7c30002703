// Looking glasses and the Periscope-style unified query client.
//
// A looking glass exposes the *current* best route of an operational
// router, with no collector in between — the lowest-latency view
// available (paper §1). Periscope (Giotsas et al., PAM'16) unifies many
// LGs behind one API; ARTEMIS polls it for its owned prefixes. The
// client models per-query latency, per-LG polling phase, and a global
// query budget (the real API is rate-limited).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "feeds/fanout.hpp"
#include "feeds/observation.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace artemis::feeds {

struct LookingGlassParams {
  bgp::Asn asn = bgp::kNoAsn;  ///< the AS hosting the LG router
  /// Per-query round-trip latency range (HTTP scrape of a router CLI).
  SimDuration min_query_latency = SimDuration::millis(500);
  SimDuration max_query_latency = SimDuration::seconds(5);
};

/// One looking glass server: asynchronous best-route queries against the
/// hosting AS's router state.
class LookingGlass {
 public:
  /// The answer vector is handed over by value (moved, never copied on
  /// the hot handoff) — the callee owns and may restamp it.
  using QueryCallback = std::function<void(std::vector<Observation>)>;

  LookingGlass(sim::Network& network, LookingGlassParams params, Rng rng);

  bgp::Asn asn() const { return params_.asn; }

  /// Asynchronously queries the LG for `prefix` ("show ip bgp <prefix>"):
  /// returns the longest-match route for the prefix base address plus any
  /// more-specific routes present (as a real LG table dump would show).
  /// The callback fires after the sampled query latency.
  void query(const net::Prefix& prefix, QueryCallback callback);

  std::uint64_t queries_served() const { return queries_served_; }

 private:
  sim::Network& network_;
  LookingGlassParams params_;
  Rng rng_;
  std::uint64_t queries_served_ = 0;
};

struct PeriscopeParams {
  std::string name = "periscope";
  /// Polling period per LG for each monitored prefix.
  SimDuration poll_interval = SimDuration::seconds(60);
  /// Maximum queries per poll_interval across all LGs (API rate limit);
  /// 0 means unlimited. Excess queries are skipped, not queued — matching
  /// the real API's behaviour of rejecting over-quota requests.
  std::uint32_t max_queries_per_interval = 0;
};

/// Polls a set of looking glasses for a set of prefixes and emits the
/// answers as Observations.
class PeriscopeClient {
 public:
  PeriscopeClient(sim::Network& network, std::vector<LookingGlassParams> glasses,
                  PeriscopeParams params, Rng rng);

  PeriscopeClient(const PeriscopeClient&) = delete;
  PeriscopeClient& operator=(const PeriscopeClient&) = delete;

  /// Adds a prefix to the polling schedule (typically each owned prefix).
  void monitor_prefix(const net::Prefix& prefix);

  /// Subscribers get one call per looking-glass answer (the LPM hit
  /// plus any more-specifics, restamped to the client's source name).
  void subscribe_batch(ObservationBatchHandler handler);

  std::size_t glass_count() const { return glasses_.size(); }
  std::uint64_t queries_issued() const { return queries_issued_; }
  std::uint64_t queries_rate_limited() const { return queries_rate_limited_; }

 private:
  void schedule_poll(std::size_t glass_index);
  void poll(std::size_t glass_index);
  bool consume_budget();

  sim::Network& network_;
  PeriscopeParams params_;
  Rng rng_;
  std::vector<std::unique_ptr<LookingGlass>> glasses_;
  std::vector<SimDuration> poll_phase_;
  std::vector<net::Prefix> monitored_;
  ObservationFanout fanout_;
  std::uint64_t queries_issued_ = 0;
  std::uint64_t queries_rate_limited_ = 0;
  /// Budget window bookkeeping.
  SimTime budget_window_start_;
  std::uint32_t budget_used_ = 0;
};

}  // namespace artemis::feeds
