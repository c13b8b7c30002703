// Shared fixtures for the ingest suite (ingest_test + ingest_kill_test):
// a deterministic alert-raising MRT window, journal inspection helpers,
// and the canonical replay-to-alert-lines view both halves of the
// crash-survival story are compared in.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "artemis/config.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "mrt/mrt.hpp"
#include "pipeline/sharded_detector.hpp"

namespace artemis::ingest_test {

/// Owned config matching the fixture window's hijacks (offenders 666/667).
inline core::Config make_config() {
  core::Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  config.add_owned(net::Prefix::must_parse("2001:db8::/32"), {65003});
  return config;
}

inline mrt::UpdateRecord make_update(bgp::Asn peer, double at_seconds,
                                     const std::vector<std::string>& announced,
                                     std::vector<bgp::Asn> path) {
  mrt::UpdateRecord rec;
  rec.peer_asn = peer;
  rec.local_asn = 0;
  rec.peer_ip = net::IpAddress::v4(0x0A000000 | peer);
  rec.timestamp = SimTime::at_seconds(at_seconds);
  rec.update.sender = peer;
  for (const auto& p : announced) {
    rec.update.announced.push_back(net::Prefix::must_parse(p));
  }
  rec.update.attrs.as_path = bgp::AsPath(std::move(path));
  return rec;
}

/// A window with enough variety to raise alerts (v4 hijack, sub-prefix,
/// v6 hijack) and enough repetition to span many batches and flushes.
/// `base_seconds` offsets the timestamps so multi-URL fixtures stay
/// monotone in fetch order.
inline std::vector<std::uint8_t> fixture_window(int repeats = 1,
                                                double base_seconds = 100) {
  std::vector<std::uint8_t> window;
  for (int rep = 0; rep < repeats; ++rep) {
    const double t = base_seconds + rep * 10;
    const auto add = [&](const std::vector<std::uint8_t>& rec) {
      window.insert(window.end(), rec.begin(), rec.end());
    };
    add(mrt::encode_update_record(
        make_update(9, t, {"10.0.0.0/23"}, {9, 3356, 666})));
    add(mrt::encode_update_record(
        make_update(9, t + 1, {"10.0.0.0/23"}, {9, 3356, 65001})));
    add(mrt::encode_update_record(
        make_update(8, t + 2, {"10.0.1.0/24"}, {8, 1299, 666})));
    add(mrt::encode_update_record(
        make_update(9, t + 3, {"2001:db8:dead::/48"}, {9, 3356, 667})));
  }
  return window;
}

inline std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("artemis_ingest_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Journal segment bytes keyed by name, for bit-identity comparisons
/// (skips the ingest cursor and other non-segment files).
inline std::vector<std::pair<std::string, std::vector<char>>> journal_bytes(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<char>>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("seg-") != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out.emplace_back(name,
                     std::vector<char>((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replays a journal through detection and renders the canonical alert
/// lines (the journal_alerts tool's view) — the currency crash-resume
/// equivalence is stated in.
inline std::vector<std::string> replay_alert_lines(const std::string& journal_dir,
                                                   std::size_t shards) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = shards;
  pipeline::ShardedDetector detector(config, options);
  feeds::MonitorHub hub;
  detector.attach(hub);
  journal::JournalReader reader(journal_dir);
  journal::ReplayFeed feed(reader);
  feed.replay_all(hub);
  std::vector<std::string> lines;
  for (const auto& alert : detector.merged_alerts()) {
    lines.push_back(alert.to_string());
  }
  return lines;
}

inline std::uint64_t count_journal_records(const std::string& dir) {
  journal::JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  std::uint64_t read = 0;
  while (const auto n = reader.read_batch(batch, 1024)) read += n;
  EXPECT_FALSE(reader.truncated_tail());
  return read;
}

}  // namespace artemis::ingest_test
