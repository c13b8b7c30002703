// The paper's three-phase hijack experiment (§3), as a reusable harness.
//
// Phase 1 (Setup): the victim AS announces a prefix; BGP converges.
// Phase 2 (Hijack & Detection): the attacker AS announces the same (or a
//   more-specific / forged-path) prefix; ARTEMIS watches its feeds.
// Phase 3 (Mitigation): on the first alert, ARTEMIS de-aggregates through
//   the controller; the experiment measures when every vantage point has
//   switched back to the legitimate origin.
//
// The victim/attacker pair substitutes for the PEERING testbed's two
// virtual ASes at different sites (DESIGN.md substitution table).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "artemis/app.hpp"
#include "feeds/batch_feed.hpp"
#include "feeds/looking_glass.hpp"
#include "feeds/stream_feed.hpp"
#include "sim/network.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

namespace artemis::core {

struct ExperimentParams {
  net::Prefix victim_prefix = net::Prefix::must_parse("10.0.0.0/23");
  bgp::Asn victim = bgp::kNoAsn;
  bgp::Asn attacker = bgp::kNoAsn;

  /// What the attacker announces; defaults to victim_prefix (exact-origin
  /// hijack). Set to a more-specific for sub-prefix experiments.
  std::optional<net::Prefix> hijack_prefix;
  /// Forged path for Type-1 experiments (e.g. [attacker, victim]);
  /// nullopt = plain origin hijack with path [attacker].
  std::optional<bgp::AsPath> forged_path;

  /// When the hijack launches. Must leave room for Phase-1 convergence.
  SimTime hijack_at = SimTime::at_seconds(3600);
  /// How long past the hijack to keep simulating.
  SimDuration horizon = SimDuration::minutes(30);

  /// Monitoring sources (paper: RIPE RIS streaming + BGPmon + Periscope).
  bool enable_ris = true;
  bool enable_bgpmon = true;
  bool enable_periscope = true;
  feeds::StreamFeedParams ris;
  feeds::StreamFeedParams bgpmon;
  std::vector<feeds::LookingGlassParams> looking_glasses;
  feeds::PeriscopeParams periscope;

  AppOptions app;
  /// Ground-truth sampling cadence for the timeline series (E2).
  SimDuration probe_interval = SimDuration::seconds(1);

  /// Mitigation outsourcing (extension): explicit helper ASes, or —
  /// when empty and helper_count > 0 — the helper_count best-connected
  /// transit ASes (largest customer cones) are recruited automatically.
  std::vector<bgp::Asn> helpers;
  int helper_count = 0;
};

/// One point of the mitigation-visualization series (§4 demo).
struct TimelineSample {
  SimTime when;
  /// Fraction of feed vantages on the legitimate origin (monitoring view).
  double feed_fraction = 0.0;
  /// Fraction of the same vantage ASes on the legitimate origin, read
  /// directly from the simulated network (no feed lag).
  double truth_fraction = 0.0;
};

struct ExperimentResult {
  SimTime hijack_at;
  std::optional<SimTime> detected_at;
  std::string detection_source;          ///< feed that won the race
  std::map<std::string, SimTime> detection_by_source;
  std::optional<SimTime> mitigation_triggered_at;
  std::optional<SimTime> announcements_applied_at;  ///< last controller apply
  std::optional<SimTime> feed_converged_at;   ///< monitoring: all vantages legit
  std::optional<SimTime> truth_converged_at;  ///< ground truth across vantages
  std::vector<net::Prefix> mitigation_announcements;
  bool deaggregation_possible = false;
  std::size_t helpers_used = 0;
  std::vector<TimelineSample> timeline;
  /// Peak share of vantage ASes captured by the hijacker (ground truth).
  double max_hijacked_fraction = 0.0;
  /// Same peak, but weighting each vantage by its customer cone size —
  /// the impact-estimation view (a fallen tier-1 outweighs a stub).
  double max_hijacked_impact = 0.0;

  std::optional<SimDuration> detection_delay() const;
  std::optional<SimDuration> mitigation_start_delay() const;   ///< detect -> applied
  std::optional<SimDuration> mitigation_duration() const;      ///< applied -> truth conv.
  std::optional<SimDuration> total_duration() const;           ///< hijack -> truth conv.

  std::string summary() const;
};

/// Helper-organization recruitment: the explicit list when given,
/// otherwise the `helper_count` best-connected transit ASes (largest
/// customer cones) — the organizations a real victim would contract.
/// Shared by the live experiment and journal replay.
std::vector<bgp::Asn> recruit_helpers(const topo::AsGraph& graph,
                                      const ExperimentParams& params);

/// The ARTEMIS operator config for an experiment: the victim owns the
/// prefix, helpers are legitimate co-origins, direct neighbors of both
/// are legitimate first hops. A replayed journal must be checked against
/// this exact ground truth to reproduce the recording run's alerts.
Config build_experiment_config(const topo::AsGraph& graph,
                               const ExperimentParams& params,
                               const std::vector<bgp::Asn>& helpers);

/// Creates one SimController per helper AS and registers it with the
/// app's mitigation service (the outsourcing wiring). Returns the
/// controllers; the caller must keep them alive as long as the app can
/// mitigate. Shared by the live experiment and journal replay so the
/// replayed mitigation behavior matches the recording run's exactly.
std::vector<std::unique_ptr<SimController>> wire_helpers(
    ArtemisApp& app, sim::Network& network, const std::vector<bgp::Asn>& helpers,
    SimDuration controller_latency);

class HijackExperiment {
 public:
  /// Builds the network, feeds and app. `graph` must outlive the
  /// experiment.
  HijackExperiment(const topo::AsGraph& graph, const sim::NetworkParams& net_params,
                   ExperimentParams params, Rng rng);

  /// Runs all three phases and returns the measurements.
  ExperimentResult run();

  sim::Network& network() { return *network_; }
  ArtemisApp& app() { return *app_; }

  /// All vantage ASes across enabled sources (deduplicated).
  const std::vector<bgp::Asn>& vantage_union() const { return vantage_union_; }

  /// Feed accessors for overhead accounting (nullptr when disabled).
  const feeds::StreamFeed* ris_feed() const { return ris_.get(); }
  const feeds::StreamFeed* bgpmon_feed() const { return bgpmon_.get(); }
  const feeds::PeriscopeClient* periscope_client() const { return periscope_.get(); }

  /// Helper ASes recruited for outsourced mitigation (empty when off).
  const std::vector<bgp::Asn>& helpers() const { return helpers_; }

 private:
  bool truth_vantage_legitimate(bgp::Asn vantage) const;
  bool truth_vantage_hijacked(bgp::Asn vantage) const;
  double truth_fraction() const;
  double truth_hijacked_fraction() const;
  double truth_hijacked_impact() const;

  ExperimentParams params_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<feeds::StreamFeed> ris_;
  std::unique_ptr<feeds::StreamFeed> bgpmon_;
  std::unique_ptr<feeds::PeriscopeClient> periscope_;
  std::unique_ptr<ArtemisApp> app_;
  std::vector<bgp::Asn> vantage_union_;
  std::vector<bgp::Asn> helpers_;
  std::vector<std::unique_ptr<SimController>> helper_controllers_;
  std::unordered_map<bgp::Asn, double> vantage_weights_;
};

}  // namespace artemis::core
