// The MRT archive importer: streaming converter + mrt -> journal import.
//
// The headline property: importing a fixture MRT window into a journal
// and replaying it — at any shard count — yields bit-identical
// merged_alerts() to ingesting the same window directly, and to
// publishing the observations the encoded fixture structs describe. Plus
// the robustness contracts: a file truncated mid-record imports every
// complete record and leaves a clean journal (never a torn segment),
// AS4_PATH/AS_PATH merge restores 4-byte ASNs from pre-AS4 records, and
// IPv6 TABLE_DUMP_V2 RIB entries flow through end to end.
#include "mrt/observation_convert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "feeds/monitor_hub.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt_expected.hpp"
#include "pipeline/sharded_detector.hpp"

#ifdef ARTEMIS_HAVE_BZIP2
#include <bzlib.h>
#endif

namespace artemis::mrt {
namespace {

namespace fs = std::filesystem;

core::Config make_config() {
  core::Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  config.add_owned(net::Prefix::must_parse("192.0.2.0/24"), {65002});
  config.add_owned(net::Prefix::must_parse("2001:db8::/32"), {65003});
  return config;
}

UpdateRecord make_update(bgp::Asn peer, double at_seconds,
                         const std::vector<std::string>& announced,
                         std::vector<bgp::Asn> path,
                         const std::vector<std::string>& withdrawn = {}) {
  UpdateRecord rec;
  rec.peer_asn = peer;
  rec.local_asn = 0;
  rec.peer_ip = net::IpAddress::v4(0x0A000000 | peer);
  rec.timestamp = SimTime::at_seconds(at_seconds);
  rec.update.sender = peer;
  for (const auto& p : announced) {
    rec.update.announced.push_back(net::Prefix::must_parse(p));
  }
  for (const auto& p : withdrawn) {
    rec.update.withdrawn.push_back(net::Prefix::must_parse(p));
  }
  rec.update.attrs.as_path = bgp::AsPath(std::move(path));
  return rec;
}

RibEntryRecord make_rib_entry(bgp::Asn peer, double at_seconds, const std::string& prefix,
                              std::vector<bgp::Asn> path) {
  RibEntryRecord entry;
  entry.peer_asn = peer;
  entry.timestamp = SimTime::at_seconds(at_seconds);
  entry.route.prefix = net::Prefix::must_parse(prefix);
  entry.route.attrs.as_path = bgp::AsPath(std::move(path));
  return entry;
}

void append(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// One fixture record: its MRT bytes and the observations it must
/// convert to, built from the struct that was encoded.
struct FixtureRecord {
  std::vector<std::uint8_t> bytes;
  std::vector<feeds::Observation> expected;
};

FixtureRecord update_record(const UpdateRecord& rec,
                            const UpdateEncodeOptions& options = {}) {
  return {encode_update_record(rec, options), expected_observations(rec)};
}

/// Pre-AS4 encoding; the fixture's peers fit 16 bits, so the vantage
/// survives the 2-byte header.
FixtureRecord update_record_as2(const UpdateRecord& rec) {
  return {encode_update_record_as2(rec), expected_observations(rec)};
}

FixtureRecord rib_dump(const std::vector<RibEntryRecord>& entries, double at_seconds) {
  const SimTime at = SimTime::at_seconds(at_seconds);
  return {encode_table_dump(entries, at), expected_observations(entries, at)};
}

/// The fixture window, one blob per MRT write (so truncation tests can
/// cut at known boundaries), covering every record flavor the importer
/// handles — 4-byte updates (announce, withdraw, mixed), a pre-AS4
/// 2-byte record needing the AS4_PATH merge, a v4 RIB snapshot, a v6
/// RIB snapshot, and the dual-stack update shapes (MP_REACH/MP_UNREACH
/// with both next-hop lengths, a v6-withdraw-only update, v6 NLRI in a
/// pre-AS4 record). Timestamps increase monotonically.
std::vector<FixtureRecord> fixture() {
  std::vector<FixtureRecord> records;
  // Hijack of owned /23 (offender 666) seen by peer 9.
  records.push_back(update_record(make_update(9, 100, {"10.0.0.0/23"}, {9, 3356, 666})));
  // Legitimate announcement of the same prefix.
  records.push_back(update_record(make_update(9, 101, {"10.0.0.0/23"}, {9, 3356, 65001})));
  // Sub-prefix hijack seen by peer 8, plus a withdrawal in one record.
  records.push_back(update_record(
      make_update(8, 102, {"10.0.1.0/24"}, {8, 1299, 666}, {"203.0.113.0/24"})));
  // Pre-AS4 speaker: wide ASN 70000 squashed to AS_TRANS on the wire,
  // restored by the AS4_PATH merge; hijacks owned #2.
  records.push_back(
      update_record_as2(make_update(7, 104, {"192.0.2.0/24"}, {7, 70000, 666})));
  // v4 RIB snapshot at t=105 (entries originated earlier: the dump time
  // is the event time).
  records.push_back(rib_dump({make_rib_entry(9, 90, "10.0.0.0/23", {9, 3356, 666}),
                              make_rib_entry(8, 95, "198.51.100.0/24", {8, 1299, 65010})},
                             105));
  // v6 RIB snapshot: hijack of the owned v6 /32 (offender 667).
  records.push_back(rib_dump({make_rib_entry(9, 106, "2001:db8::/32", {9, 3356, 667}),
                              make_rib_entry(9, 106, "2001:db8:ffff::/48", {9, 3356, 667})},
                             106));
  // MP_REACH v6 sub-prefix hijack in an update stream (not a RIB dump).
  records.push_back(
      update_record(make_update(9, 107, {"2001:db8:dead::/48"}, {9, 3356, 667})));
  // Dual-stack update with the 32-byte (global + link-local) next hop:
  // v4 sub-prefix hijack and v6 exact hijack in one record, plus an
  // MP_UNREACH withdrawal riding along.
  {
    UpdateEncodeOptions nh32;
    nh32.mp_next_hop_len = 32;
    records.push_back(update_record(
        make_update(8, 108, {"10.0.1.0/24", "2001:db8::/32"}, {8, 1299, 667},
                    {"2001:db8:aaaa::/48"}),
        nh32));
  }
  // v6-withdraw-only update: a lone MP_UNREACH attribute, nothing else.
  records.push_back(update_record(make_update(9, 109, {}, {}, {"2001:db8:dead::/48"})));
  // v6 NLRI announced by a pre-AS4 speaker (AS4_PATH merge + MP_REACH).
  records.push_back(
      update_record_as2(make_update(7, 110, {"2001:db8:ffff::/48"}, {7, 70000, 667})));
  return records;
}

std::vector<std::vector<std::uint8_t>> fixture_records() {
  std::vector<std::vector<std::uint8_t>> out;
  for (auto& rec : fixture()) out.push_back(std::move(rec.bytes));
  return out;
}

/// Every observation the fixture window describes, in window order.
std::vector<feeds::Observation> fixture_expected() {
  std::vector<feeds::Observation> out;
  for (const auto& rec : fixture()) {
    out.insert(out.end(), rec.expected.begin(), rec.expected.end());
  }
  return out;
}

std::vector<std::uint8_t> fixture_window() {
  std::vector<std::uint8_t> window;
  for (const auto& rec : fixture_records()) append(window, rec);
  return window;
}

/// Collects everything a converter emits into one flat vector.
std::vector<feeds::Observation> convert_to_vector(
    ObservationConverter& converter, std::span<const std::uint8_t> data,
    ConvertFileStats* stats_out = nullptr) {
  std::vector<feeds::Observation> out;
  const auto stats =
      converter.convert_file(data, [&](std::span<const feeds::Observation> batch) {
        out.insert(out.end(), batch.begin(), batch.end());
      });
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

void expect_same_alerts(const std::vector<core::HijackAlert>& a,
                        const std::vector<core::HijackAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "alert " << i;
    EXPECT_EQ(a[i].owned_prefix, b[i].owned_prefix) << "alert " << i;
    EXPECT_EQ(a[i].observed_prefix, b[i].observed_prefix) << "alert " << i;
    EXPECT_EQ(a[i].offender, b[i].offender) << "alert " << i;
    EXPECT_EQ(a[i].observed_path.to_string(), b[i].observed_path.to_string())
        << "alert " << i;
    EXPECT_EQ(a[i].vantage, b[i].vantage) << "alert " << i;
    EXPECT_EQ(a[i].source, b[i].source) << "alert " << i;
    EXPECT_EQ(a[i].event_time, b[i].event_time) << "alert " << i;
    EXPECT_EQ(a[i].detected_at, b[i].detected_at) << "alert " << i;
  }
}

std::string fresh_dir(const std::string& tag) {
  const auto dir = fs::path(::testing::TempDir()) / ("artemis_mrt_import_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

std::string write_file(const std::string& dir, const std::string& name,
                       std::span<const std::uint8_t> bytes) {
  fs::create_directories(dir);
  const auto path = fs::path(dir) / name;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path.string();
}

// ------------------------------------------------------ converter core

TEST(MrtConvertTest, ConverterMatchesEncodedFixture) {
  const auto window = fixture_window();
  ObservationConverter converter;
  ConvertFileStats stats;
  const auto converted = convert_to_vector(converter, window, &stats);
  EXPECT_TRUE(stats.clean());
  // 8 update records + 2 dumps of (1 peer index + 2 RIB records) each.
  EXPECT_EQ(stats.records, 14u);
  EXPECT_EQ(stats.skipped_records, 0u);
  EXPECT_EQ(stats.bytes_consumed, window.size());
  EXPECT_EQ(stats.observations, converted.size());
  expect_observations(converted, fixture_expected());
}

TEST(MrtConvertTest, As4PathMergeRestoresWideAsns) {
  const auto bytes =
      encode_update_record_as2(make_update(7, 104, {"192.0.2.0/24"}, {7, 70000, 666}));
  ObservationConverter converter;
  const auto obs = convert_to_vector(converter, bytes);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].attrs.as_path.to_string(), bgp::AsPath({7, 70000, 666}).to_string());
  // The wire really carried AS_TRANS: a decoder that ignores AS4_PATH
  // must see it in the mandatory AS_PATH.
  bool saw_as_trans = false;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == (kAsTrans >> 8) && bytes[i + 1] == (kAsTrans & 0xFF)) {
      saw_as_trans = true;
    }
  }
  EXPECT_TRUE(saw_as_trans);
}

TEST(MrtConvertTest, Ipv6RibEntriesConvert) {
  const auto bytes = encode_table_dump(
      {make_rib_entry(9, 106, "2001:db8::/32", {9, 3356, 667}),
       make_rib_entry(8, 106, "2001:db8:ffff::/48", {8, 1299, 65003})},
      SimTime::at_seconds(106));
  ObservationConverter converter;
  const auto obs = convert_to_vector(converter, bytes);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].type, feeds::ObservationType::kRouteState);
  EXPECT_EQ(obs[0].prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(obs[0].vantage, 9u);
  EXPECT_EQ(obs[1].prefix, net::Prefix::must_parse("2001:db8:ffff::/48"));
  EXPECT_EQ(obs[1].vantage, 8u);
}

TEST(MrtConvertTest, MonotoneClockClampsOutOfOrderHeadersAcrossFiles) {
  // File A: t=200 then t=150 (archives interleave collector shards).
  std::vector<std::uint8_t> file_a;
  append(file_a, encode_update_record(make_update(9, 200, {"10.0.0.0/23"}, {9, 666})));
  append(file_a, encode_update_record(make_update(9, 150, {"10.0.1.0/24"}, {9, 666})));
  // File B starts before the clock: t=100.
  std::vector<std::uint8_t> file_b;
  append(file_b, encode_update_record(make_update(9, 100, {"10.0.0.0/24"}, {9, 666})));

  ObservationConverter converter;
  const auto obs_a = convert_to_vector(converter, file_a);
  const auto obs_b = convert_to_vector(converter, file_b);
  ASSERT_EQ(obs_a.size(), 2u);
  ASSERT_EQ(obs_b.size(), 1u);
  EXPECT_EQ(obs_a[0].event_time, SimTime::at_seconds(200));
  EXPECT_EQ(obs_a[1].event_time, SimTime::at_seconds(200));  // clamped
  EXPECT_EQ(obs_b[0].event_time, SimTime::at_seconds(200));  // clock persists
  EXPECT_EQ(converter.clock_us(), SimTime::at_seconds(200).as_micros());
}

TEST(MrtConvertTest, SourceSchemes) {
  const auto bytes =
      encode_update_record(make_update(9, 100, {"10.0.0.0/23"}, {9, 666}));
  {
    ObservationConverter converter;  // default: per collector peer
    const auto obs = convert_to_vector(converter, bytes);
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].source, "mrt:AS9");
    EXPECT_EQ(converter.source_table_size(), 1u);
  }
  {
    ObservationConvertOptions options;
    options.source_prefix = "routeviews";
    options.source_scheme = ImportSourceScheme::kSingle;
    ObservationConverter converter(options);
    const auto obs = convert_to_vector(converter, bytes);
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].source, "routeviews");
    EXPECT_EQ(converter.source_table_size(), 0u);
  }
}

TEST(MrtConvertTest, DeliveryLagShiftsDeliveredAtOnly) {
  ObservationConvertOptions options;
  options.delivery_lag = SimDuration::seconds(60);
  ObservationConverter converter(options);
  const auto bytes =
      encode_update_record(make_update(9, 100, {"10.0.0.0/23"}, {9, 666}));
  const auto obs = convert_to_vector(converter, bytes);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].event_time, SimTime::at_seconds(100));
  EXPECT_EQ(obs[0].delivered_at, SimTime::at_seconds(160));
}

TEST(MrtConvertTest, BatchCapacityFlushesAtRecordBoundaries) {
  std::vector<std::uint8_t> window;
  for (int i = 0; i < 10; ++i) {
    // Three observations per record (two announced + one withdrawn).
    append(window, encode_update_record(make_update(
                       9, 100 + i, {"10.0.0.0/24", "10.0.1.0/24"}, {9, 666},
                       {"203.0.113.0/24"})));
  }
  ObservationConvertOptions options;
  options.batch_capacity = 4;
  ObservationConverter converter(options);
  std::vector<std::size_t> batch_sizes;
  const auto stats = converter.convert_file(
      window, [&](std::span<const feeds::Observation> batch) {
        batch_sizes.push_back(batch.size());
      });
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.observations, 30u);
  std::size_t total = 0;
  for (const auto n : batch_sizes) {
    total += n;
    EXPECT_EQ(n % 3, 0u) << "flush tore a record apart";
  }
  EXPECT_EQ(total, 30u);
}

// ----------------------------------------------------- truncation

TEST(MrtImportTest, TruncatedFileMidRecordProducesCleanPartialJournal) {
  const auto records = fixture_records();
  // Every cut position inside record 3: mid-header, mid-timestamp
  // extension, mid-body — all must yield exactly the first three
  // records' observations and a perfectly readable journal.
  std::vector<std::uint8_t> intact;
  for (int i = 0; i < 3; ++i) append(intact, records[static_cast<std::size_t>(i)]);
  const std::size_t next_len = records[3].size();
  std::uint64_t expected_obs = 0;
  {
    ObservationConverter counter;
    expected_obs = convert_to_vector(counter, intact).size();
  }

  int variant = 0;
  for (const std::size_t keep : {std::size_t{5}, std::size_t{13}, next_len - 3}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    auto bytes = intact;
    bytes.insert(bytes.end(), records[3].begin(),
                 records[3].begin() + static_cast<std::ptrdiff_t>(keep));

    const std::string dir = fresh_dir("trunc_src_" + std::to_string(variant));
    const std::string journal_dir = fresh_dir("trunc_j_" + std::to_string(variant));
    ++variant;
    const auto path = write_file(dir, "window.mrt", bytes);

    const std::string paths[] = {path};
    const auto result = import_mrt_files(paths, journal_dir);
    EXPECT_EQ(result.files, 0u);
    EXPECT_EQ(result.truncated_files, 1u);
    EXPECT_EQ(result.records, 3u);
    EXPECT_EQ(result.observations, expected_obs);
    EXPECT_EQ(result.mrt_bytes, intact.size());
    ASSERT_EQ(result.file_errors.size(), 1u);

    // The journal itself is clean: every complete record, no torn tail.
    journal::JournalReader reader(journal_dir);
    pipeline::ObservationBatch batch;
    std::uint64_t read = 0;
    while (const auto n = reader.read_batch(batch, 1024)) read += n;
    EXPECT_EQ(read, expected_obs);
    EXPECT_FALSE(reader.truncated_tail());
  }
}

TEST(MrtImportTest, MalformedRecordStopsFileAtPreviousBoundary) {
  const auto records = fixture_records();
  std::vector<std::uint8_t> bytes;
  append(bytes, records[0]);
  // A record whose BGP marker is wrong: complete on the wire (header and
  // length intact) but malformed inside.
  auto bad = records[1];
  // header(12) + ET micros(4) + BGP4MP preamble(20) = first marker byte.
  bad[12 + 4 + 20] ^= 0xFF;
  append(bytes, bad);
  append(bytes, records[2]);  // never reached

  ObservationConverter converter;
  ConvertFileStats stats;
  const auto obs = convert_to_vector(converter, bytes, &stats);
  EXPECT_FALSE(stats.truncated);
  EXPECT_FALSE(stats.error.empty());
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(obs.size(), 1u);  // only record 0's announcement
}

// ------------------------------------------------- journal round trip

TEST(MrtImportTest, ImportReplayRoundTripBitIdentical) {
  const auto records = fixture_records();
  // Two files, split mid-window: import must stitch them into one
  // contiguous monotone history.
  std::vector<std::uint8_t> file1;
  for (std::size_t i = 0; i < 3; ++i) append(file1, records[i]);
  std::vector<std::uint8_t> file2;
  for (std::size_t i = 3; i < records.size(); ++i) append(file2, records[i]);

  const std::string src_dir = fresh_dir("roundtrip_src");
  const std::string journal_dir = fresh_dir("roundtrip_j");
  const std::vector<std::string> paths = {write_file(src_dir, "a.mrt", file1),
                                          write_file(src_dir, "b.mrt", file2)};

  const auto result = import_mrt_files(paths, journal_dir);
  EXPECT_EQ(result.files, 2u);
  EXPECT_EQ(result.truncated_files, 0u);
  EXPECT_EQ(result.failed_files, 0u);
  EXPECT_GT(result.observations, 0u);
  EXPECT_GT(result.journal_bytes, 0u);

  // Path A — direct ingestion: converter output straight into the batch
  // pipeline (hub -> sharded detection), no journal.
  const core::Config config_a = make_config();
  pipeline::ShardedDetector direct(config_a);
  feeds::MonitorHub direct_hub;
  direct.attach(direct_hub);
  {
    ObservationConverter converter;
    const auto window = fixture_window();
    const auto stats = converter.convert_file(window, direct_hub.batch_inlet());
    ASSERT_TRUE(stats.clean());
    ASSERT_EQ(converter.observations_emitted(), result.observations);
  }
  const auto direct_alerts = direct.merged_alerts();
  ASSERT_FALSE(direct_alerts.empty());

  // Path B — the observations the encoded fixture structs describe,
  // published one at a time: no decoder at all.
  const core::Config config_b = make_config();
  pipeline::ShardedDetector described(config_b);
  feeds::MonitorHub described_hub;
  described.attach(described_hub);
  for (const auto& obs : fixture_expected()) {
    described_hub.publish_batch({&obs, 1});
  }
  expect_same_alerts(described.merged_alerts(), direct_alerts);

  // Path C — journal replay at shard counts 1 and 4: bit-identical both
  // ways.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const core::Config config_c = make_config();
    pipeline::ShardedDetectorOptions options;
    options.shards = shards;
    pipeline::ShardedDetector replayed(config_c, options);
    feeds::MonitorHub hub;
    replayed.attach(hub);
    journal::JournalReader reader(journal_dir);
    journal::ReplayFeed feed(reader);
    const auto replayed_count = feed.replay_all(hub);
    EXPECT_EQ(replayed_count, result.observations);
    EXPECT_FALSE(reader.truncated_tail());
    expect_same_alerts(replayed.merged_alerts(), direct_alerts);
    EXPECT_EQ(replayed.observations_processed(), direct.observations_processed());
  }
}

TEST(MrtImportTest, V6HijackDetectedThroughImportAndReplay) {
  const std::string src_dir = fresh_dir("v6_src");
  const std::string journal_dir = fresh_dir("v6_j");
  const auto bytes = encode_table_dump(
      {make_rib_entry(9, 106, "2001:db8::/32", {9, 3356, 667})},
      SimTime::at_seconds(106));
  const std::string paths[] = {write_file(src_dir, "rib6.mrt", bytes)};
  const auto result = import_mrt_files(paths, journal_dir);
  ASSERT_EQ(result.files, 1u);

  const core::Config config = make_config();
  pipeline::ShardedDetector detector(config);
  feeds::MonitorHub hub;
  detector.attach(hub);
  journal::JournalReader reader(journal_dir);
  journal::ReplayFeed feed(reader);
  feed.replay_all(hub);
  const auto alerts = detector.merged_alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].offender, 667u);
  EXPECT_EQ(alerts[0].owned_prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(alerts[0].source, "mrt:AS9");
}

// ------------------------------------------- MP truncation + skip recovery

TEST(MrtImportTest, MpRecordTruncationCutsProduceCleanPartialImport) {
  // Cut the dual-stack nh-32 record (records[7]) at EVERY byte offset:
  // mid-header, mid-MP_REACH next hop, mid-NLRI, mid-MP_UNREACH — each
  // cut must yield exactly the first seven records' observations and a
  // truncated (not errored) file.
  const auto records = fixture_records();
  std::vector<std::uint8_t> intact;
  for (std::size_t i = 0; i < 7; ++i) append(intact, records[i]);
  ConvertFileStats intact_stats;
  std::uint64_t expected_obs = 0;
  {
    ObservationConverter counter;
    expected_obs = convert_to_vector(counter, intact, &intact_stats).size();
  }
  const auto& cut_record = records[7];
  for (std::size_t keep = 1; keep < cut_record.size(); ++keep) {
    auto bytes = intact;
    bytes.insert(bytes.end(), cut_record.begin(),
                 cut_record.begin() + static_cast<std::ptrdiff_t>(keep));
    ObservationConverter converter;
    ConvertFileStats stats;
    const auto obs = convert_to_vector(converter, bytes, &stats);
    ASSERT_TRUE(stats.truncated) << "keep=" << keep;
    ASSERT_TRUE(stats.error.empty()) << "keep=" << keep << ": " << stats.error;
    ASSERT_EQ(stats.records, intact_stats.records) << "keep=" << keep;
    ASSERT_EQ(obs.size(), expected_obs) << "keep=" << keep;
    ASSERT_EQ(stats.bytes_consumed, intact.size()) << "keep=" << keep;
  }
}

/// A complete, well-framed UPDATE record whose AS_PATH is an AS_SET
/// segment — the aggregate shape we recognize but do not model. Announces
/// the owned /23, so skipping (vs mis-importing) is observable.
std::vector<std::uint8_t> as_set_update_record(bgp::Asn peer, double at_seconds) {
  return encode_update_record_as_set(
      make_update(peer, at_seconds, {"10.0.0.0/23"}, {65001, 65002}));
}

TEST(MrtImportTest, AsSetRecordSkipsAndFileContinues) {
  const auto records = fixture_records();
  std::vector<std::uint8_t> bytes;
  append(bytes, records[0]);
  append(bytes, as_set_update_record(9, 101));
  append(bytes, records[1]);  // must still convert

  ObservationConverter converter;
  ConvertFileStats stats;
  const auto obs = convert_to_vector(converter, bytes, &stats);
  EXPECT_TRUE(stats.clean());  // skips do not dirty the file
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped_records, 1u);
  EXPECT_EQ(stats.bytes_consumed, bytes.size());

  // Observation stream == the same window without the AS_SET record.
  const auto fixture_recs = fixture();
  auto expected = fixture_recs[0].expected;
  expected.insert(expected.end(), fixture_recs[1].expected.begin(),
                  fixture_recs[1].expected.end());
  expect_observations(obs, expected);
}

TEST(MrtImportTest, SkippedRecordsSurfaceInImportResult) {
  const auto records = fixture_records();
  std::vector<std::uint8_t> bytes;
  append(bytes, records[0]);
  append(bytes, as_set_update_record(9, 101));
  append(bytes, records[1]);
  const std::string src_dir = fresh_dir("skip_src");
  const std::string journal_dir = fresh_dir("skip_j");
  const std::string paths[] = {write_file(src_dir, "w.mrt", bytes)};
  const auto result = import_mrt_files(paths, journal_dir);
  EXPECT_EQ(result.files, 1u);  // still a cleanly imported file
  EXPECT_EQ(result.truncated_files, 0u);
  EXPECT_EQ(result.failed_files, 0u);
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(result.skipped_records, 1u);
  ASSERT_EQ(result.file_errors.size(), 1u);
  EXPECT_NE(result.file_errors[0].find("skipped 1 unsupported record"),
            std::string::npos);

  journal::JournalReader reader(journal_dir);
  pipeline::ObservationBatch batch;
  std::uint64_t read = 0;
  while (const auto n = reader.read_batch(batch, 64)) read += n;
  EXPECT_EQ(read, result.observations);
  EXPECT_FALSE(reader.truncated_tail());
}

// ------------------------------------------------- compressed transport

#ifdef ARTEMIS_HAVE_ZLIB
std::vector<std::uint8_t> gzip_bytes(std::span<const std::uint8_t> in) {
  return gzip_compress(in);
}

/// Journal segment bytes, keyed by file name (for bit-identity checks).
std::vector<std::pair<std::string, std::vector<char>>> journal_bytes(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<char>>> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out.emplace_back(entry.path().filename().string(),
                     std::vector<char>((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MrtImportTest, GzipImportBitIdenticalToRaw) {
  const auto window = fixture_window();
  const auto gz = gzip_bytes(window);
  const std::string src_dir = fresh_dir("gz_src");
  const std::string raw_j = fresh_dir("gz_raw_j");
  const std::string gz_j = fresh_dir("gz_gz_j");
  const std::string raw_paths[] = {write_file(src_dir, "w.mrt", window)};
  const std::string gz_paths[] = {write_file(src_dir, "w.mrt.gz", gz)};

  const auto raw_result = import_mrt_files(raw_paths, raw_j);
  const auto gz_result = import_mrt_files(gz_paths, gz_j);
  EXPECT_EQ(gz_result.files, 1u);
  EXPECT_EQ(gz_result.records, raw_result.records);
  EXPECT_EQ(gz_result.observations, raw_result.observations);
  EXPECT_EQ(gz_result.mrt_bytes, raw_result.mrt_bytes);  // decompressed bytes
  EXPECT_EQ(gz_result.journal_bytes, raw_result.journal_bytes);
  // The journals are bit-identical: compression is pure transport.
  EXPECT_EQ(journal_bytes(gz_j), journal_bytes(raw_j));
}

TEST(MrtImportTest, TornGzipImportsRecoveredPrefixCleanly) {
  // A big window whose gzip stream is cut mid-file: everything
  // decompressed before the tear imports, the file counts as truncated,
  // and the journal is clean.
  std::vector<std::uint8_t> window;
  for (int rep = 0; rep < 32; ++rep) append(window, fixture_window());
  std::uint64_t full_obs = 0;
  {
    ObservationConverter counter;
    full_obs = convert_to_vector(counter, window).size();
  }
  auto gz = gzip_bytes(window);
  gz.resize(gz.size() / 2);

  const std::string src_dir = fresh_dir("torn_gz_src");
  const std::string journal_dir = fresh_dir("torn_gz_j");
  const std::string paths[] = {write_file(src_dir, "w.mrt.gz", gz)};
  const auto result = import_mrt_files(paths, journal_dir);
  EXPECT_EQ(result.files, 0u);
  EXPECT_EQ(result.truncated_files, 1u);
  EXPECT_GT(result.observations, 0u);
  EXPECT_LT(result.observations, full_obs);
  ASSERT_EQ(result.file_errors.size(), 1u);
  EXPECT_NE(result.file_errors[0].find("gzip"), std::string::npos);

  journal::JournalReader reader(journal_dir);
  pipeline::ObservationBatch batch;
  std::uint64_t read = 0;
  while (const auto n = reader.read_batch(batch, 1024)) read += n;
  EXPECT_EQ(read, result.observations);
  EXPECT_FALSE(reader.truncated_tail());
}

TEST(MrtImportTest, ChunkFedTornStreamMatchesWholeFileRecovery) {
  // The tear contract stream_reader.hpp promises: a torn gzip stream fed
  // to the ChunkDecompressor one awkward chunk at a time delivers a
  // prefix of the original plaintext and surfaces the tear as a flag —
  // truncated() set, error() naming gzip, no throw — and recovers the
  // same bytes as the whole file fed through decompress_file.
  std::vector<std::uint8_t> window;
  for (int rep = 0; rep < 32; ++rep) append(window, fixture_window());
  auto gz = gzip_bytes(window);
  gz.resize(gz.size() / 2);

  auto chunked = make_chunk_decompressor(Compression::kGzip);
  std::vector<std::uint8_t> pushed;
  const auto collect = [&](std::span<const std::uint8_t> out) {
    pushed.insert(pushed.end(), out.begin(), out.end());
  };
  for (std::size_t i = 0; i < gz.size(); i += 13) {
    const std::size_t n = std::min<std::size_t>(13, gz.size() - i);
    chunked->feed({gz.data() + i, n}, collect);
  }
  chunked->finish(collect);

  ASSERT_GT(pushed.size(), 0u);
  ASSERT_LT(pushed.size(), window.size());
  EXPECT_TRUE(std::equal(pushed.begin(), pushed.end(), window.begin()));
  EXPECT_TRUE(chunked->truncated());
  EXPECT_NE(chunked->error().find("gzip"), std::string::npos);

  // The file path (bounded reads) reports the tear as its return value
  // and recovers exactly what the 13-byte feed did: chunking never
  // changes what a torn stream yields.
  const std::string src_dir = fresh_dir("torn_prefix_src");
  const auto path = write_file(src_dir, "w.mrt.gz", gz);
  std::vector<std::uint8_t> from_file;
  const std::string tear = decompress_file(path, [&](std::span<const std::uint8_t> out) {
    from_file.insert(from_file.end(), out.begin(), out.end());
  });
  EXPECT_EQ(tear, chunked->error());
  EXPECT_EQ(from_file, pushed);

  // After the tear the decompressor is inert until reset(); then it
  // handles a fresh, intact stream (the ingest loop's reuse pattern).
  EXPECT_FALSE(chunked->feed(gz, collect));
  chunked->reset();
  EXPECT_FALSE(chunked->truncated());
  const auto intact = gzip_bytes(fixture_window());
  std::vector<std::uint8_t> round;
  chunked->feed(intact, [&](std::span<const std::uint8_t> out) {
    round.insert(round.end(), out.begin(), out.end());
  });
  chunked->finish([&](std::span<const std::uint8_t> out) {
    round.insert(round.end(), out.begin(), out.end());
  });
  EXPECT_FALSE(chunked->truncated());
  EXPECT_EQ(round, fixture_window());
}

TEST(MrtImportTest, ConcatenatedGzipMembersImportAsOneStream) {
  // pigz / split-and-cat mirrors produce multi-member files; both members
  // must decompress as one MRT stream.
  const auto records = fixture_records();
  std::vector<std::uint8_t> file1;
  for (std::size_t i = 0; i < 4; ++i) append(file1, records[i]);
  std::vector<std::uint8_t> file2;
  for (std::size_t i = 4; i < records.size(); ++i) append(file2, records[i]);
  auto gz = gzip_bytes(file1);
  const auto gz2 = gzip_bytes(file2);
  gz.insert(gz.end(), gz2.begin(), gz2.end());

  const std::string src_dir = fresh_dir("concat_gz_src");
  const std::string journal_dir = fresh_dir("concat_gz_j");
  const std::string paths[] = {write_file(src_dir, "w.mrt.gz", gz)};
  const auto result = import_mrt_files(paths, journal_dir);
  EXPECT_EQ(result.files, 1u);
  EXPECT_EQ(result.records, 14u);
}

TEST(MrtImportTest, CompressedDualStackReplayBitIdentical) {
  // The tentpole headline: a gzip'd dual-stack window imports, journals
  // and replays bit-identically (shards 1 and 4) vs direct ingestion.
  const auto window = fixture_window();
  const auto gz = gzip_bytes(window);
  const std::string src_dir = fresh_dir("gzrt_src");
  const std::string journal_dir = fresh_dir("gzrt_j");
  const std::string paths[] = {write_file(src_dir, "w.mrt.gz", gz)};
  const auto result = import_mrt_files(paths, journal_dir);
  ASSERT_EQ(result.files, 1u);

  const core::Config config_a = make_config();
  pipeline::ShardedDetector direct(config_a);
  feeds::MonitorHub direct_hub;
  direct.attach(direct_hub);
  {
    ObservationConverter converter;
    const auto stats = converter.convert_file(window, direct_hub.batch_inlet());
    ASSERT_TRUE(stats.clean());
  }
  const auto direct_alerts = direct.merged_alerts();
  ASSERT_FALSE(direct_alerts.empty());
  // The window must exercise v6 detection, not just carry v6 bytes.
  bool saw_v6_alert = false;
  for (const auto& alert : direct_alerts) {
    if (!alert.observed_prefix.is_v4()) saw_v6_alert = true;
  }
  EXPECT_TRUE(saw_v6_alert);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const core::Config config = make_config();
    pipeline::ShardedDetectorOptions options;
    options.shards = shards;
    pipeline::ShardedDetector replayed(config, options);
    feeds::MonitorHub hub;
    replayed.attach(hub);
    journal::JournalReader reader(journal_dir);
    journal::ReplayFeed feed(reader);
    const auto replayed_count = feed.replay_all(hub);
    EXPECT_EQ(replayed_count, result.observations);
    expect_same_alerts(replayed.merged_alerts(), direct_alerts);
  }
}
#endif  // ARTEMIS_HAVE_ZLIB

#ifdef ARTEMIS_HAVE_BZIP2
TEST(MrtImportTest, Bzip2ImportMatchesRaw) {
  const auto window = fixture_window();
  std::vector<std::uint8_t> bz(window.size() + window.size() / 100 + 600);
  unsigned bz_len = static_cast<unsigned>(bz.size());
  ASSERT_EQ(BZ2_bzBuffToBuffCompress(
                reinterpret_cast<char*>(bz.data()), &bz_len,
                reinterpret_cast<char*>(const_cast<std::uint8_t*>(window.data())),
                static_cast<unsigned>(window.size()), 9, 0, 0),
            BZ_OK);
  bz.resize(bz_len);

  const std::string src_dir = fresh_dir("bz_src");
  const std::string journal_dir = fresh_dir("bz_j");
  const std::string paths[] = {write_file(src_dir, "w.mrt.bz2", bz)};
  const auto result = import_mrt_files(paths, journal_dir);
  EXPECT_EQ(result.files, 1u);
  EXPECT_EQ(result.records, 14u);

  ObservationConverter counter;
  EXPECT_EQ(result.observations, convert_to_vector(counter, window).size());
}
#endif  // ARTEMIS_HAVE_BZIP2

TEST(MrtImportTest, ResumedImportAppendsContiguously) {
  // Importing a second window into an existing journal must resume the
  // sequence (JournalWriter semantics), so one reader pass sees both.
  const std::string src_dir = fresh_dir("resume_src");
  const std::string journal_dir = fresh_dir("resume_j");
  const auto records = fixture_records();
  const std::string path1 = write_file(src_dir, "w1.mrt", records[0]);
  const std::string path2 = write_file(src_dir, "w2.mrt", records[1]);

  const std::string first[] = {path1};
  const std::string second[] = {path2};
  const auto r1 = import_mrt_files(first, journal_dir);
  const auto r2 = import_mrt_files(second, journal_dir);

  journal::JournalReader reader(journal_dir);
  pipeline::ObservationBatch batch;
  std::uint64_t read = 0;
  while (const auto n = reader.read_batch(batch, 16)) read += n;
  EXPECT_EQ(read, r1.observations + r2.observations);
  EXPECT_FALSE(reader.truncated_tail());
}

}  // namespace
}  // namespace artemis::mrt
