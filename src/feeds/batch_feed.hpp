// Legacy archive feeds: RouteViews / RIPE RIS MRT dumps.
//
// Before streaming services, hijack detectors consumed periodically
// published MRT files: BGP update archives (every 15 minutes for RIS,
// §1 of the paper) and full RIB snapshots (every 2 hours for RouteViews).
// BatchFeed reproduces that pipeline end to end, *including the MRT
// encoding*: updates are buffered into an in-memory MRT file per window
// and the subscriber-visible observations are decoded back from those
// bytes by the same ObservationConverter the archive importer runs, so
// a simulated archive and an imported one share one decode path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "feeds/fanout.hpp"
#include "feeds/observation.hpp"
#include "mrt/observation_convert.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace artemis::feeds {

enum class BatchMode : std::uint8_t {
  kUpdates,  ///< publish buffered updates every `interval` (RIS: 15 min)
  kRibDump,  ///< publish full RIB snapshots every `interval` (2 h RIBs)
};

struct BatchFeedParams {
  std::string name = "batch-updates";
  std::vector<bgp::Asn> vantages;
  BatchMode mode = BatchMode::kUpdates;
  /// File publication period (15 min for update archives, 2 h for RIBs).
  SimDuration interval = SimDuration::minutes(15);
  /// Extra delay between window close and file availability (collection,
  /// transfer, mirror sync).
  SimDuration publish_delay = SimDuration::seconds(60);
};

class BatchFeed {
 public:
  BatchFeed(sim::Network& network, BatchFeedParams params, Rng rng);

  BatchFeed(const BatchFeed&) = delete;
  BatchFeed& operator=(const BatchFeed&) = delete;

  /// Subscribers get one call per published file — the decoded
  /// archive window as a single contiguous batch, in file order. Every
  /// observation is delivered when its file is (delivered_at = file
  /// availability); RIB entries carry the dump time as event_time.
  void subscribe_batch(ObservationBatchHandler handler);

  const std::string& name() const { return params_.name; }

  /// Bytes of MRT data published so far (overhead accounting).
  std::uint64_t bytes_published() const { return bytes_published_; }
  std::uint64_t files_published() const { return files_published_; }

 private:
  void on_vantage_update(bgp::Asn vantage, const bgp::UpdateMessage& update);
  void schedule_next_window();
  void publish_updates_window(SimTime window_end);
  void publish_rib_dump(SimTime snapshot_time);
  void deliver_file(std::vector<std::uint8_t> mrt_bytes, SimTime available_at);

  sim::Network& network_;
  BatchFeedParams params_;
  Rng rng_;
  ObservationFanout fanout_;
  /// Decodes published files; its one source is the feed name.
  mrt::ObservationConverter converter_;
  /// One file's observations, emitted as a single batch.
  std::vector<Observation> file_batch_;
  /// MRT bytes accumulated in the current window (kUpdates mode).
  std::vector<std::uint8_t> window_buffer_;
  std::uint64_t bytes_published_ = 0;
  std::uint64_t files_published_ = 0;
};

}  // namespace artemis::feeds
