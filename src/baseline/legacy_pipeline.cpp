#include "baseline/legacy_pipeline.hpp"

namespace artemis::baseline {

LegacyPipeline::LegacyPipeline(const core::Config& config, sim::Simulator& sim,
                               OperatorModel model, Rng rng, std::string name)
    : detector_(config), sim_(sim), model_(model), rng_(rng), name_(std::move(name)) {
  detector_.on_alert([this](const core::HijackAlert& alert) {
    if (timings_) return;  // model the first incident only
    LegacyTimings timings;
    timings.data_available_at = alert.detected_at;
    const SimDuration verify =
        rng_.uniform_duration(model_.verification_min, model_.verification_max);
    const SimDuration mitigate =
        rng_.uniform_duration(model_.mitigation_min, model_.mitigation_max);
    timings.verified_at = timings.data_available_at + verify;
    timings.mitigation_done_at = timings.verified_at + mitigate;
    timings_ = timings;
  });
}

feeds::ObservationBatchHandler LegacyPipeline::inlet() {
  return [this](std::span<const feeds::Observation> batch) {
    detector_.process_batch(batch);
  };
}

}  // namespace artemis::baseline
