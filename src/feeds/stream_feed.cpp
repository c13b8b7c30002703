#include "feeds/stream_feed.hpp"

#include <cmath>

namespace artemis::feeds {

StreamFeed::StreamFeed(sim::Network& network, StreamFeedParams params, Rng rng)
    : network_(network), params_(std::move(params)), rng_(rng) {
  for (const auto vantage : params_.vantages) {
    network_.speaker(vantage).add_change_tap(
        [this, vantage](const bgp::UpdateMessage& update) {
          on_vantage_update(vantage, update);
        });
  }
}

void StreamFeed::subscribe_batch(ObservationBatchHandler handler) {
  fanout_.add_batch(std::move(handler));
}

SimDuration StreamFeed::sample_latency() {
  const double mu = std::log(params_.median_latency.as_seconds());
  return SimDuration::seconds(rng_.lognormal(mu, params_.latency_sigma));
}

void StreamFeed::on_vantage_update(bgp::Asn vantage, const bgp::UpdateMessage& update) {
  auto& sim = network_.simulator();
  const SimTime event_time = sim.now();

  // One collector message per vantage update: every announced/withdrawn
  // prefix of the update travels together and arrives after one sampled
  // latency, delivered to subscribers as a single batch. Messages are not
  // ordered against each other (as with real RIS-live).
  const SimDuration latency = sample_latency();
  const SimTime delivered_at = event_time + latency;
  std::vector<Observation> message;
  message.reserve(update.announced.size() + update.withdrawn.size());
  for (const auto& prefix : update.announced) {
    Observation& obs = message.emplace_back();
    obs.type = ObservationType::kAnnouncement;
    obs.source = params_.name;
    obs.vantage = vantage;
    obs.prefix = prefix;
    obs.attrs = update.attrs;
    obs.event_time = event_time;
    obs.delivered_at = delivered_at;
  }
  for (const auto& prefix : update.withdrawn) {
    Observation& obs = message.emplace_back();
    obs.type = ObservationType::kWithdrawal;
    obs.source = params_.name;
    obs.vantage = vantage;
    obs.prefix = prefix;
    obs.event_time = event_time;
    obs.delivered_at = delivered_at;
  }
  if (message.empty()) return;
  sim.after(latency, [this, message = std::move(message)] {
    delivered_ += message.size();
    fanout_.emit(message);
  });
}

}  // namespace artemis::feeds
