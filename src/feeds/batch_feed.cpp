#include "feeds/batch_feed.hpp"

namespace artemis::feeds {

BatchFeed::BatchFeed(sim::Network& network, BatchFeedParams params, Rng rng)
    : network_(network),
      params_(std::move(params)),
      rng_(rng),
      converter_({.source_prefix = params_.name,
                  .source_scheme = mrt::ImportSourceScheme::kSingle}) {
  if (params_.mode == BatchMode::kUpdates) {
    for (const auto vantage : params_.vantages) {
      network_.speaker(vantage).add_change_tap(
          [this, vantage](const bgp::UpdateMessage& update) {
            on_vantage_update(vantage, update);
          });
    }
  }
  schedule_next_window();
}

void BatchFeed::subscribe_batch(ObservationBatchHandler handler) {
  fanout_.add_batch(std::move(handler));
}

void BatchFeed::on_vantage_update(bgp::Asn vantage, const bgp::UpdateMessage& update) {
  mrt::UpdateRecord record;
  record.peer_asn = vantage;
  record.local_asn = 0;  // the collector
  record.peer_ip = net::IpAddress::v4(0x0A000000 | vantage);
  record.timestamp = network_.simulator().now();
  record.update = update;
  const auto bytes = mrt::encode_update_record(record);
  window_buffer_.insert(window_buffer_.end(), bytes.begin(), bytes.end());
}

void BatchFeed::schedule_next_window() {
  auto& sim = network_.simulator();
  // Windows close on interval boundaries (files are named by wall clock,
  // not by first-packet time — matches the real archives).
  const std::int64_t period = params_.interval.as_micros();
  const std::int64_t now_us = sim.now().as_micros();
  const std::int64_t k = now_us / period + 1;
  const SimTime window_end = SimTime::at_micros(k * period);
  sim.at(window_end, [this, window_end] {
    if (params_.mode == BatchMode::kUpdates) {
      publish_updates_window(window_end);
    } else {
      publish_rib_dump(window_end);
    }
    schedule_next_window();
  });
}

void BatchFeed::publish_updates_window(SimTime window_end) {
  if (window_buffer_.empty()) return;
  deliver_file(std::move(window_buffer_), window_end + params_.publish_delay);
  window_buffer_.clear();
}

void BatchFeed::publish_rib_dump(SimTime snapshot_time) {
  std::vector<mrt::RibEntryRecord> entries;
  for (const auto vantage : params_.vantages) {
    const auto& speaker = network_.speaker(vantage);
    speaker.rib().visit_best([&](const bgp::Route& route) {
      if (!route.prefix.is_v4()) return;  // TABLE_DUMP_V2 writer is v4-only
      mrt::RibEntryRecord entry;
      entry.peer_asn = vantage;
      entry.timestamp = route.installed_at;
      entry.route = route;
      // RIB dumps export the vantage's own view: prepend the vantage ASN
      // as its monitoring session would.
      if (route.learned_from != bgp::kNoAsn) {
        entry.route.attrs.as_path = route.attrs.as_path.prepended(vantage);
      }
      entries.push_back(std::move(entry));
    });
  }
  if (entries.empty()) return;
  deliver_file(mrt::encode_table_dump(entries, snapshot_time),
               snapshot_time + params_.publish_delay);
}

void BatchFeed::deliver_file(std::vector<std::uint8_t> mrt_bytes, SimTime available_at) {
  bytes_published_ += mrt_bytes.size();
  ++files_published_;
  auto& sim = network_.simulator();
  sim.at(available_at, [this, bytes = std::move(mrt_bytes), available_at] {
    // Decode the published file exactly as the archive importer would,
    // and hand the whole window downstream as one batch — the natural
    // unit of the archive pipeline (and the shape the batch-first
    // detection path amortizes best). Nothing in it is visible before
    // the file itself is.
    file_batch_.clear();
    converter_.convert_file(bytes, [this](std::span<const Observation> batch) {
      file_batch_.insert(file_batch_.end(), batch.begin(), batch.end());
    });
    for (auto& obs : file_batch_) obs.delivered_at = available_at;
    fanout_.emit(file_batch_);
  });
}

}  // namespace artemis::feeds
