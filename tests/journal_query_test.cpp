// The queryable-archive layer (src/journal/index.*, compression,
// retention, predicate replay) — the ISSUE's test-coverage asks:
//
//   * FooterCorruption — every single-byte flip (the full matrix) makes
//     the footer decode to nullopt; on disk that degrades the segment to
//     a full scan with identical query results, never an error.
//   * CompressedReplay — a gzip-compressed journal replays bit-identical
//     to its raw twin, through detection at shards 1 and 4.
//   * Retention — deletes oldest-first, never the active segment, and
//     the surviving suffix stays contiguously readable.
//   * QuerySkips — a selective predicate over a multi-segment journal
//     scans only the footer-matching segments (the acceptance
//     scan-counter assertion).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artemis/config.hpp"
#include "journal/index.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "pipeline/sharded_detector.hpp"
#include "util/rng.hpp"

namespace artemis::journal {
namespace {

namespace fs = std::filesystem;

std::string make_temp_dir(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("artemis_jquery_") + tag + "_" +
                     info->test_suite_name() + "_" + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

feeds::Observation make_obs(const std::string& prefix, bgp::Asn origin,
                            const std::string& source, double event_s,
                            feeds::ObservationType type =
                                feeds::ObservationType::kAnnouncement) {
  feeds::Observation obs;
  obs.type = type;
  obs.source = source;
  obs.vantage = 9;
  obs.prefix = net::Prefix::must_parse(prefix);
  if (type != feeds::ObservationType::kWithdrawal) {
    obs.attrs.as_path = bgp::AsPath({9, 3356, origin});
  }
  obs.event_time = SimTime::at_seconds(event_s);
  obs.delivered_at = obs.event_time + SimDuration::seconds(1.0);
  return obs;
}

/// A deterministic multi-segment journal: batch k (= segment k, via
/// segment_bytes = 1 so every batch rotates) announces prefixes under
/// 10.<k>.0.0/16, from source "src<k>", in the event window
/// [1000 + 100k, 1000 + 100k + 30] seconds.
std::vector<std::vector<feeds::Observation>> segmented_batches(int segments) {
  std::vector<std::vector<feeds::Observation>> batches;
  for (int k = 0; k < segments; ++k) {
    std::vector<feeds::Observation> batch;
    const std::string base = "10." + std::to_string(k);
    const std::string source = "src" + std::to_string(k);
    const double t0 = 1000.0 + 100.0 * k;
    batch.push_back(make_obs(base + ".0.0/16", 65001, source, t0));
    batch.push_back(make_obs(base + ".1.0/24", 666, source, t0 + 10));
    batch.push_back(make_obs(base + ".1.0/24", 666, source, t0 + 10));
    batch.push_back(make_obs(base + ".2.0/24", 65001, source, t0 + 20,
                             feeds::ObservationType::kWithdrawal));
    batch.push_back(make_obs(base + ".3.0/25", 777, source, t0 + 30));
    batches.push_back(std::move(batch));
  }
  return batches;
}

void write_batches(const std::string& dir,
                   const std::vector<std::vector<feeds::Observation>>& batches,
                   JournalWriterOptions options = {}) {
  options.segment_bytes = 1;  // rotate after every batch: batch == segment
  JournalWriter writer(dir, options);
  for (const auto& batch : batches) {
    writer.append_batch({batch.data(), batch.size()});
  }
  writer.close();
}

std::vector<feeds::Observation> read_filtered(const std::string& dir,
                                              const QueryFilter& filter,
                                              std::uint64_t* scanned = nullptr,
                                              std::uint64_t* skipped = nullptr) {
  JournalReader reader(dir);
  reader.set_filter(filter);
  std::vector<feeds::Observation> out;
  pipeline::ObservationBatch buffer;
  while (reader.read_batch(buffer, 64) > 0) {
    for (const auto& obs : buffer) out.push_back(obs);
  }
  if (scanned != nullptr) *scanned = reader.segments_scanned();
  if (skipped != nullptr) *skipped = reader.segments_skipped();
  return out;
}

void expect_same_observation(const feeds::Observation& a,
                             const feeds::Observation& b, std::size_t index) {
  EXPECT_EQ(a.type, b.type) << "record " << index;
  EXPECT_EQ(a.source, b.source) << "record " << index;
  EXPECT_EQ(a.vantage, b.vantage) << "record " << index;
  EXPECT_EQ(a.prefix, b.prefix) << "record " << index;
  EXPECT_EQ(a.attrs, b.attrs) << "record " << index;
  EXPECT_EQ(a.event_time, b.event_time) << "record " << index;
  EXPECT_EQ(a.delivered_at, b.delivered_at) << "record " << index;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// ------------------------------------------------------ footer wire form

TEST(SegmentIndexTest, EncodeDecodeRoundTrip) {
  SegmentIndexBuilder builder;
  builder.reset(42);
  std::vector<feeds::Observation> obs = {
      make_obs("10.0.0.0/16", 65001, "ris-live", 1000.0),
      make_obs("10.1.2.0/24", 666, "bgpmon", 990.0),
      make_obs("2001:db8::/32", 65003, "ris-live", 1010.0),
  };
  for (const auto& o : obs) builder.add(o);
  const SegmentIndex index =
      builder.finalize({"ris-live", "bgpmon"});

  const auto bytes = index.encode();
  const auto decoded = SegmentIndex::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first_seq, 42u);
  EXPECT_EQ(decoded->record_count, 3u);
  EXPECT_EQ(decoded->min_event_us, SimTime::at_seconds(990.0).as_micros());
  EXPECT_EQ(decoded->max_event_us, SimTime::at_seconds(1010.0).as_micros());
  EXPECT_EQ(decoded->sources, (std::vector<std::string>{"ris-live", "bgpmon"}));
  EXPECT_EQ(decoded->bloom_bits, index.bloom_bits);
  EXPECT_EQ(decoded->bloom, index.bloom);
  EXPECT_TRUE(decoded->contains_source("bgpmon"));
  EXPECT_FALSE(decoded->contains_source("periscope"));
}

TEST(SegmentIndexTest, BloomAnswersOverlapNotEquality) {
  SegmentIndexBuilder builder;
  builder.reset(0);
  builder.add(make_obs("10.1.2.0/24", 666, "s", 1000.0));
  const SegmentIndex index = builder.finalize({"s"});

  // Exact, covering, and covered query prefixes must all answer "maybe".
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("10.1.2.0/24")));
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("10.1.0.0/16")));
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("10.1.2.128/25")));
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("10.0.0.0/8")));
  // Disjoint prefixes differing within the first rung are ruled out.
  EXPECT_FALSE(index.may_contain_prefix(net::Prefix::must_parse("11.0.0.0/8")));
  EXPECT_FALSE(index.may_contain_prefix(net::Prefix::must_parse("192.0.2.0/24")));
  // A disjoint SIBLING sharing the record's rung-8 ancestor answers
  // "maybe": the rung-8 hit alone keeps overlap with a hypothetical
  // band-[8,16) covering record possible, so ruling it out would be
  // unsound. This is the filter's inherent (allowed) false positive.
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("10.2.0.0/16")));
  // A query shorter than the first ladder rung cannot be ruled out.
  EXPECT_TRUE(index.may_contain_prefix(net::Prefix::must_parse("0.0.0.0/4")));
  // Nor can any same-family query once a record sits below the first
  // rung (the marker key forces a scan).
  SegmentIndexBuilder shorty;
  shorty.reset(0);
  shorty.add(make_obs("16.0.0.0/6", 666, "s", 1000.0));
  const SegmentIndex marker = shorty.finalize({"s"});
  EXPECT_TRUE(marker.may_contain_prefix(net::Prefix::must_parse("192.0.2.0/24")));
}

TEST(SegmentIndexTest, EverySingleByteFlipFailsDecode) {
  SegmentIndexBuilder builder;
  builder.reset(7);
  for (int i = 0; i < 64; ++i) {
    builder.add(make_obs("10.0." + std::to_string(i) + ".0/24", 666, "s",
                         1000.0 + i));
  }
  auto bytes = builder.finalize({"s"}).encode();
  ASSERT_TRUE(SegmentIndex::decode(bytes.data(), bytes.size()).has_value());

  // The full corruption matrix: any one flipped byte — magic, version,
  // body, Bloom words, CRC itself — must yield nullopt (advisory
  // metadata fails closed to "full scan"), never a throw.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x5A;
    EXPECT_FALSE(SegmentIndex::decode(bytes.data(), bytes.size()).has_value())
        << "flipped byte " << i;
    bytes[i] ^= 0x5A;
  }
  // Every truncation, down to the empty file.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(SegmentIndex::decode(bytes.data(), len).has_value())
        << "truncated to " << len;
  }
  // A foreign version with a VALID checksum is still ignored by name of
  // the contract (footers are advisory; future versions full-scan).
  auto foreign = bytes;
  foreign[kIndexMagic.size()] ^= 0xFF;
  const std::uint32_t crc = crc32(foreign.data(), foreign.size() - 4);
  for (int b = 0; b < 4; ++b) {
    foreign[foreign.size() - 4 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(crc >> (8 * b));
  }
  EXPECT_FALSE(SegmentIndex::decode(foreign.data(), foreign.size()).has_value());
}

// --------------------------------------------- footer corruption on disk

TEST(FooterCorruptionTest, CorruptFooterDegradesToFullScanNotError) {
  const std::string dir = make_temp_dir("corrupt");
  const auto batches = segmented_batches(4);
  write_batches(dir, batches);

  // Prefix + time window (every segment's prefixes share the rung-8
  // ancestor 10/8, so the window is what makes footers selective).
  QueryFilter filter;
  filter.prefix = net::Prefix::must_parse("10.2.0.0/16");
  filter.min_event_us = SimTime::at_seconds(1200.0).as_micros();
  filter.max_event_us = SimTime::at_seconds(1230.0).as_micros();

  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
  const auto pruned = read_filtered(dir, filter, &scanned, &skipped);
  ASSERT_EQ(pruned.size(), 5u);  // all of segment 2 sits under 10.2.0.0/16
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(skipped, 3u);

  // Flip one byte in the middle of every footer: queries must return the
  // SAME records, with zero segments skipped and no error raised.
  for (int k = 0; k < 4; ++k) {
    const std::string path = index_path(dir, static_cast<std::uint64_t>(k) * 5);
    ASSERT_TRUE(fs::exists(path)) << path;
    auto bytes = read_file(path);
    bytes[bytes.size() / 2] ^= 0x01;
    write_file(path, bytes);
  }
  const auto full = read_filtered(dir, filter, &scanned, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(scanned, 4u);
  ASSERT_EQ(full.size(), pruned.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    expect_same_observation(full[i], pruned[i], i);
  }

  // Missing footers: same degradation.
  for (int k = 0; k < 4; ++k) {
    fs::remove(index_path(dir, static_cast<std::uint64_t>(k) * 5));
  }
  const auto absent = read_filtered(dir, filter, &scanned, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(absent.size(), pruned.size());

  // build_missing_footers restores the pruning (the rebuilt footers are
  // byte-identical to the writer's — one deterministic encoder).
  EXPECT_EQ(build_missing_footers(dir), 4u);
  const auto rebuilt = read_filtered(dir, filter, &scanned, &skipped);
  EXPECT_EQ(skipped, 3u);
  ASSERT_EQ(rebuilt.size(), pruned.size());
}

// ----------------------------------------------- the acceptance criterion

TEST(QuerySkipTest, SelectivePredicateScansOnlyFooterMatchingSegments) {
  const std::string dir = make_temp_dir("skip");
  const auto batches = segmented_batches(8);
  write_batches(dir, batches);

  // Prefix + time-window predicate confined to segment 5 (the lower
  // bound also excludes the covering 10.5.0.0/16 announce at t=1500 s).
  QueryFilter filter;
  filter.prefix = net::Prefix::must_parse("10.5.1.0/24");
  filter.min_event_us = SimTime::at_seconds(1000.0 + 505.0).as_micros();
  filter.max_event_us = SimTime::at_seconds(1000.0 + 560.0).as_micros();

  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
  const auto matches = read_filtered(dir, filter, &scanned, &skipped);
  EXPECT_EQ(scanned, 1u) << "footer pruning must open only segment 5";
  EXPECT_EQ(skipped, 7u);
  ASSERT_EQ(matches.size(), 2u);  // the duplicated 10.5.1.0/24 burst
  for (const auto& obs : matches) {
    EXPECT_EQ(obs.prefix, net::Prefix::must_parse("10.5.1.0/24"));
  }

  // Same answer as brute force: trivial filter + manual predicate.
  JournalReader reader(dir);
  pipeline::ObservationBatch buffer;
  std::vector<feeds::Observation> brute;
  while (reader.read_batch(buffer, 64) > 0) {
    for (const auto& obs : buffer) {
      if (filter.matches(obs)) brute.push_back(obs);
    }
  }
  ASSERT_EQ(brute.size(), matches.size());
  for (std::size_t i = 0; i < brute.size(); ++i) {
    expect_same_observation(brute[i], matches[i], i);
  }

  // Source predicate: exactly one segment holds "src3".
  QueryFilter by_source;
  by_source.source = "src3";
  const auto sourced = read_filtered(dir, by_source, &scanned, &skipped);
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(skipped, 7u);
  EXPECT_EQ(sourced.size(), batches[3].size());
}

TEST(QuerySkipTest, SkipPreservesSequenceGapDetection) {
  const std::string dir = make_temp_dir("gap");
  write_batches(dir, segmented_batches(4));
  // Remove a MIDDLE segment (and its footer): a filtered read that skips
  // other segments must still detect the gap by sequence accounting.
  fs::remove(dir + "/seg-0000000000000005.aj");
  fs::remove(index_path(dir, 5));
  QueryFilter filter;
  filter.prefix = net::Prefix::must_parse("10.3.0.0/16");
  EXPECT_THROW(read_filtered(dir, filter), JournalError);
}

// ------------------------------------------- ownership projection term

TEST(AnyPrefixesTest, RecordTermMatchesAnyOverlapAndAndsWithOtherTerms) {
  QueryFilter filter;
  filter.any_prefixes.push_back(net::Prefix::must_parse("10.1.0.0/16"));
  filter.any_prefixes.push_back(net::Prefix::must_parse("192.0.2.0/24"));
  EXPECT_FALSE(filter.is_trivial());

  // Overlap with AT LEAST ONE candidate: covered, covering, or exact.
  EXPECT_TRUE(filter.matches(make_obs("10.1.2.0/24", 666, "s", 1000.0)));
  EXPECT_TRUE(filter.matches(make_obs("10.0.0.0/8", 666, "s", 1000.0)));
  EXPECT_TRUE(filter.matches(make_obs("192.0.2.128/25", 666, "s", 1000.0)));
  // No candidate overlaps: the record is filtered out.
  EXPECT_FALSE(filter.matches(make_obs("10.2.0.0/16", 666, "s", 1000.0)));
  EXPECT_FALSE(filter.matches(make_obs("198.51.100.0/24", 666, "s", 1000.0)));

  // ANDed with every other term, not ORed: a type term still applies to
  // records that pass the any-overlap test.
  filter.type = feeds::ObservationType::kWithdrawal;
  EXPECT_FALSE(filter.matches(make_obs("10.1.2.0/24", 666, "s", 1000.0)));
  EXPECT_TRUE(filter.matches(make_obs("10.1.2.0/24", 666, "s", 1000.0,
                                      feeds::ObservationType::kWithdrawal)));
}

TEST(AnyPrefixesTest, FooterPrunesSegmentsNoCandidateCanTouch) {
  const std::string dir = make_temp_dir("anyprefix");
  // Three single-batch segments in DISJOINT first-rung space, so the
  // Bloom ladder can separate them (a shared /8 answers "maybe"
  // everywhere, by design — see BloomAnswersOverlapNotEquality).
  std::vector<std::vector<feeds::Observation>> batches(3);
  batches[0].push_back(make_obs("20.1.0.0/16", 65001, "s", 1000.0));
  batches[0].push_back(make_obs("20.1.2.0/24", 666, "s", 1001.0));
  batches[1].push_back(make_obs("30.1.0.0/16", 65001, "s", 1002.0));
  batches[2].push_back(make_obs("40.1.0.0/16", 65001, "s", 1003.0));
  batches[2].push_back(make_obs("40.9.9.0/24", 666, "s", 1004.0));
  write_batches(dir, batches);

  // Candidates touching segments 0 and 2: segment 1 is the only one
  // every candidate provably misses, so it alone is skipped.
  QueryFilter filter;
  filter.any_prefixes.push_back(net::Prefix::must_parse("20.1.2.0/24"));
  filter.any_prefixes.push_back(net::Prefix::must_parse("40.0.0.0/12"));
  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
  const auto matches = read_filtered(dir, filter, &scanned, &skipped);
  EXPECT_EQ(scanned, 2u);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(matches.size(), 4u);
  for (const auto& obs : matches) {
    EXPECT_NE(obs.prefix.to_string().substr(0, 3), "30.")
        << "segment 1's records must not leak through the record filter";
  }

  // Ownership of space no footer can contain skips EVERY segment
  // without decoding a record (the journal_alerts --owned projection).
  QueryFilter absent;
  absent.any_prefixes.push_back(net::Prefix::must_parse("172.16.0.0/16"));
  const auto none = read_filtered(dir, absent, &scanned, &skipped);
  EXPECT_EQ(scanned, 0u);
  EXPECT_EQ(skipped, 3u);
  EXPECT_TRUE(none.empty());
}

// ------------------------------------------------- compressed replay

#ifdef ARTEMIS_HAVE_ZLIB
TEST(CompressedJournalTest, ReplayIsBitIdenticalToRawAtShards1And4) {
  const std::string raw_dir = make_temp_dir("raw");
  const std::string gz_dir = make_temp_dir("gz");
  const auto batches = segmented_batches(6);
  write_batches(raw_dir, batches);
  JournalWriterOptions gz_options;
  gz_options.compress_segments = true;
  write_batches(gz_dir, batches, gz_options);

  // Every sealed segment really is stored compressed.
  std::size_t gz_segments = 0;
  for (const auto& entry : fs::directory_iterator(gz_dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_FALSE(is_raw_segment_file_name(name)) << name;
    if (is_compressed_segment_file_name(name)) ++gz_segments;
  }
  EXPECT_EQ(gz_segments, 6u);

  // The observation streams are identical record for record.
  JournalReader raw_reader(raw_dir);
  JournalReader gz_reader(gz_dir);
  pipeline::ObservationBatch a;
  pipeline::ObservationBatch b;
  std::vector<feeds::Observation> raw_all;
  std::vector<feeds::Observation> gz_all;
  while (raw_reader.read_batch(a, 64) > 0) {
    for (const auto& obs : a) raw_all.push_back(obs);
  }
  while (gz_reader.read_batch(b, 64) > 0) {
    for (const auto& obs : b) gz_all.push_back(obs);
  }
  ASSERT_EQ(raw_all.size(), gz_all.size());
  for (std::size_t i = 0; i < raw_all.size(); ++i) {
    expect_same_observation(raw_all[i], gz_all[i], i);
  }
  EXPECT_FALSE(gz_reader.truncated_tail());

  // Detection over the compressed journal, at shards 1 and 4, matches
  // detection over the raw journal bit for bit.
  core::Config config;
  config.add_owned(net::Prefix::must_parse("10.1.0.0/16"), {65001});
  const auto alerts_of = [&config](const std::string& dir, std::size_t shards) {
    pipeline::ShardedDetectorOptions options;
    options.shards = shards;
    pipeline::ShardedDetector detector(config, options);
    JournalReader reader(dir);
    pipeline::ObservationBatch batch;
    while (reader.read_batch(batch, 97) > 0) detector.submit_batch(batch.view());
    detector.flush();
    std::vector<std::string> lines;
    for (const auto& alert : detector.merged_alerts()) {
      lines.push_back(alert.to_string());
    }
    return lines;
  };
  const auto reference = alerts_of(raw_dir, 1);
  ASSERT_FALSE(reference.empty());  // the 10.1.1.0/24 origin-666 hijack
  EXPECT_EQ(alerts_of(gz_dir, 1), reference);
  EXPECT_EQ(alerts_of(gz_dir, 4), reference);
}

TEST(CompressedJournalTest, WriterResumesACompressedJournal) {
  const std::string dir = make_temp_dir("resume");
  const auto batches = segmented_batches(3);
  JournalWriterOptions options;
  options.compress_segments = true;
  write_batches(dir, batches, options);

  // Restart and append one more batch; the journal stays one contiguous
  // sequence across the compressed/raw boundary.
  const auto more = segmented_batches(4);
  {
    options.segment_bytes = 1;
    JournalWriter writer(dir, options);
    EXPECT_EQ(writer.next_sequence(), 15u);
    writer.append_batch({more[3].data(), more[3].size()});
    writer.close();
  }
  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  std::size_t total = 0;
  while (reader.read_batch(batch, 64) > 0) total += batch.size();
  EXPECT_EQ(total, 20u);
  EXPECT_FALSE(reader.truncated_tail());
}
/// One sealed, compressed 200-record segment whose .gz is then cut in
/// half — a tear sealing never produces (compression writes whole
/// files), so the stores must treat it as corruption. Returns the .gz
/// path.
std::string write_torn_compressed_segment(const std::string& dir) {
  std::vector<feeds::Observation> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(make_obs("10." + std::to_string(i) + ".0.0/16", 65001, "src",
                             1000.0 + i));
  }
  JournalWriterOptions options;
  options.compress_segments = true;
  {
    JournalWriter writer(dir, options);
    writer.append_batch({batch.data(), batch.size()});
    writer.close();
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!is_compressed_segment_file_name(entry.path().filename().string())) continue;
    auto bytes = read_file(entry.path().string());
    bytes.resize(bytes.size() / 2);
    write_file(entry.path().string(), bytes);
    return entry.path().string();
  }
  ADD_FAILURE() << "close sealed no compressed segment";
  return {};
}

TEST(CompressedJournalTest, TornGzSegmentFailsReplayNamingTheFile) {
  const std::string dir = make_temp_dir("torn_replay");
  const std::string gz = write_torn_compressed_segment(dir);
  const std::string name = fs::path(gz).filename().string();
  try {
    JournalReader reader(dir);
    pipeline::ObservationBatch batch;
    while (reader.read_batch(batch, 64) > 0) {
    }
    FAIL() << "a torn .gz segment replayed without error";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("gzip"), std::string::npos) << e.what();
  }
}

TEST(CompressedJournalTest, TornGzSegmentFailsWriterResumeNamingTheFile) {
  const std::string dir = make_temp_dir("torn_resume");
  const std::string gz = write_torn_compressed_segment(dir);
  const std::string name = fs::path(gz).filename().string();
  try {
    JournalWriterOptions options;
    options.compress_segments = true;
    JournalWriter writer(dir, options);
    FAIL() << "writer resumed over a torn .gz segment";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("gzip"), std::string::npos) << e.what();
  }
}

TEST(CompressedJournalTest, TornGzSegmentBackfillIndexesRecoveredPrefix) {
  // Footers are advisory: rebuilding one over a torn .gz indexes the
  // complete records recovered before the tear instead of failing.
  const std::string dir = make_temp_dir("torn_backfill");
  write_torn_compressed_segment(dir);
  fs::remove(index_path(dir, 0));
  EXPECT_EQ(build_missing_footers(dir), 1u);
  const auto footer = load_segment_index(index_path(dir, 0));
  ASSERT_TRUE(footer.has_value());
  EXPECT_GT(footer->record_count, 0u);
  EXPECT_LT(footer->record_count, 200u);
}
#endif  // ARTEMIS_HAVE_ZLIB

// ------------------------------------------------------------ retention

TEST(RetentionTest, DeletesOldestFirstAndNeverTheActiveSegment) {
  const std::string dir = make_temp_dir("retain");
  const auto batches = segmented_batches(8);
  JournalWriterOptions options;
  options.segment_bytes = 1;
  options.retention.max_segments = 2;
  JournalWriter writer(dir, options);
  for (const auto& batch : batches) {
    writer.append_batch({batch.data(), batch.size()});
  }
  // Before close: every batch rotated into its own sealed segment, 6 of
  // the 8 were reaped, and the ACTIVE (empty continuation) segment at
  // first_seq 40 is untouched by retention.
  writer.flush();
  EXPECT_TRUE(fs::exists(dir + "/seg-0000000000000028.aj"));
  EXPECT_EQ(writer.segments_deleted(), 6u);
  writer.close();  // reclaims the empty continuation, nothing new to reap
  EXPECT_EQ(writer.segments_deleted(), 6u);

  // Survivors are the NEWEST two segments, contiguously readable.
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (is_segment_file_name(name)) segs.push_back(name);
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], "seg-000000000000001e.aj");  // batch 6, first_seq 30
  EXPECT_EQ(segs[1], "seg-0000000000000023.aj");  // batch 7, first_seq 35

  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  std::vector<feeds::Observation> tail;
  while (reader.read_batch(batch, 64) > 0) {
    for (const auto& obs : batch) tail.push_back(obs);
  }
  ASSERT_EQ(tail.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) {
    expect_same_observation(tail[i], batches[6][i], i);
    expect_same_observation(tail[5 + i], batches[7][i], 5 + i);
  }
}

TEST(RetentionTest, MaxAgeReapsOnlyProvablyOldSegments) {
  const std::string dir = make_temp_dir("age");
  const auto batches = segmented_batches(6);  // 100 s of events per segment
  JournalWriterOptions options;
  options.segment_bytes = 1;
  options.retention.max_age_us = 250'000'000;  // 250 s
  JournalWriter writer(dir, options);
  for (const auto& batch : batches) {
    writer.append_batch({batch.data(), batch.size()});
  }
  writer.close();
  EXPECT_GT(writer.segments_deleted(), 0u);
  JournalReader reader(dir);  // the survivors must still read cleanly
  pipeline::ObservationBatch batch;
  std::size_t total = 0;
  while (reader.read_batch(batch, 64) > 0) total += batch.size();
  EXPECT_GE(total, 10u);       // the newest ~250s of history survives
  EXPECT_LT(total, 30u);       // and the oldest segments are gone
}

TEST(RetentionTest, ParseRetentionPolicySpellings) {
  JournalWriterOptions options;
  EXPECT_TRUE(parse_retention_policy("segments=48", options));
  EXPECT_EQ(options.retention.max_segments, 48u);
  EXPECT_TRUE(parse_retention_policy("bytes=2g,age=24h", options));
  EXPECT_EQ(options.retention.max_bytes, 2ull << 30);
  EXPECT_EQ(options.retention.max_age_us, 86'400'000'000ll);
  EXPECT_EQ(options.retention.max_segments, 0u);  // replaced, not merged
  EXPECT_TRUE(parse_retention_policy("segments=2,bytes=512k,age=90m", options));
  EXPECT_EQ(retention_policy_to_string(options), "segments=2,bytes=524288,age=5400s");
  EXPECT_TRUE(parse_retention_policy("none", options));
  EXPECT_FALSE(options.retention.enabled());
  EXPECT_EQ(retention_policy_to_string(options), "none");
  for (const char* bad : {"", "segments=0", "bytes=", "age=5w", "bananas=3",
                          "segments=2,,age=1h", "segments=-1", "age=1h2"}) {
    EXPECT_FALSE(parse_retention_policy(bad, options)) << bad;
  }
}

// ----------------------------------------------------- close() seals

TEST(WriterSealTest, CloseWritesFooterForFinalPartialSegment) {
  const std::string dir = make_temp_dir("seal");
  const auto batches = segmented_batches(1);
  {
    JournalWriter writer(dir);  // default 64 MB segments: never rotates
    writer.append_batch({batches[0].data(), batches[0].size()});
    writer.close();
  }
  const auto footer = load_segment_index(index_path(dir, 0));
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(footer->first_seq, 0u);
  EXPECT_EQ(footer->record_count, 5u);
  EXPECT_EQ(footer->sources, std::vector<std::string>{"src0"});
  EXPECT_EQ(footer->min_event_us, SimTime::at_seconds(1000.0).as_micros());
  EXPECT_EQ(footer->max_event_us, SimTime::at_seconds(1030.0).as_micros());
  EXPECT_TRUE(
      footer->may_contain_prefix(net::Prefix::must_parse("10.0.1.0/24")));
}

// ----------------------------------------------------- predicate replay

TEST(ReplayFilterTest, ReplayFeedEmitsOnlyMatchingRecords) {
  const std::string dir = make_temp_dir("replayfilter");
  write_batches(dir, segmented_batches(4));

  JournalReader reader(dir);
  ReplayOptions options;
  options.filter.origin = 666;
  ReplayFeed feed(reader, options);
  std::vector<feeds::Observation> seen;
  const std::uint64_t replayed =
      feed.replay_all([&seen](std::span<const feeds::Observation> batch) {
        seen.insert(seen.end(), batch.begin(), batch.end());
      });
  EXPECT_EQ(replayed, 8u);  // two origin-666 records per segment
  ASSERT_EQ(seen.size(), 8u);
  for (const auto& obs : seen) EXPECT_EQ(obs.origin_as(), 666u);
}

}  // namespace
}  // namespace artemis::journal
