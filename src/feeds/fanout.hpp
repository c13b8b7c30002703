// Shared subscriber registry for the observation pipeline.
//
// Every producer (feeds, MonitorHub) emits whole batches, and every
// consumer (DetectionService::process_batch, the sharded pipeline, the
// journal tap) takes them as spans: one std::function call per batch.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "feeds/observation.hpp"

namespace artemis::feeds {

class ObservationFanout {
 public:
  void add_batch(ObservationBatchHandler handler) {
    handlers_.push_back(std::move(handler));
  }

  /// Delivers one batch to every subscriber, in registration order. The
  /// span must stay valid for the duration of the call only.
  void emit(std::span<const Observation> batch) const {
    if (batch.empty()) return;
    for (const auto& handler : handlers_) handler(batch);
  }

 private:
  std::vector<ObservationBatchHandler> handlers_;
};

}  // namespace artemis::feeds
