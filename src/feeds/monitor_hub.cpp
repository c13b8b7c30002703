#include "feeds/monitor_hub.hpp"

#include <algorithm>

namespace artemis::feeds {

std::vector<std::uint32_t>::const_iterator MonitorHub::name_lower_bound(
    std::string_view source) const {
  return std::lower_bound(
      by_name_.begin(), by_name_.end(), source,
      [this](std::uint32_t id, std::string_view s) { return sources_[id].name < s; });
}

std::uint32_t MonitorHub::intern(std::string_view source) {
  const auto it = name_lower_bound(source);
  if (it != by_name_.end() && sources_[*it].name == source) return *it;
  const auto id = static_cast<std::uint32_t>(sources_.size());
  sources_.push_back(SourceSlot{std::string(source), 0, nullptr});
  by_name_.insert(it, id);
  register_source_metric(sources_.back());
  return id;
}

void MonitorHub::set_metrics(telemetry::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  observations_metric_ =
      registry_->counter("artemis_hub_observations_total",
                         "Observations published through the monitor hub");
  batches_metric_ = registry_->counter(
      "artemis_hub_batches_total", "Batches published through the monitor hub");
  // Sources interned before the registry arrived get their cells now.
  for (auto& slot : sources_) register_source_metric(slot);
}

void MonitorHub::register_source_metric(SourceSlot& slot) {
  if (registry_ == nullptr || slot.metric != nullptr) return;
  slot.metric =
      registry_->counter("artemis_source_observations_total",
                         "Observations published per monitoring source",
                         telemetry::prometheus_label("source", slot.name));
}

void MonitorHub::publish_batch(std::span<const Observation> batch) {
  if (batch.empty()) return;
  total_ += batch.size();
  if (observations_metric_ != nullptr) {
    observations_metric_->add(batch.size());
    batches_metric_->add();
  }
  // One interned lookup per run of equal source names. Feed batches are
  // single-source, so this is one lookup per batch, not per observation.
  std::size_t i = 0;
  while (i < batch.size()) {
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].source == batch[i].source) ++j;
    SourceSlot& slot = sources_[intern(batch[i].source)];
    slot.count += j - i;
    if (slot.metric != nullptr) slot.metric->add(j - i);
    i = j;
  }
  fanout_.emit(batch);
}

void MonitorHub::subscribe_batch(ObservationBatchHandler handler) {
  fanout_.add_batch(std::move(handler));
}

ObservationBatchHandler MonitorHub::batch_inlet() {
  return [this](std::span<const Observation> batch) { publish_batch(batch); };
}

std::map<std::string, std::uint64_t> MonitorHub::per_source_counts() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& slot : sources_) out.emplace(slot.name, slot.count);
  return out;
}

std::uint64_t MonitorHub::source_count(std::string_view source) const {
  const auto it = name_lower_bound(source);
  if (it == by_name_.end() || sources_[*it].name != source) return 0;
  return sources_[*it].count;
}

}  // namespace artemis::feeds
