// The ingest subsystem under scripted faults.
//
// Every network failure mode the supervisor claims to survive is staged
// here against the in-process FaultServer: 5xx storms, connections cut
// (FIN and RST) mid-body, stalls past the read timeout, lying
// Content-Length, servers that ignore Range — and for each, the
// headline invariants hold:
//
//   * the byte stream the pipeline sees is seamless (each entity byte
//     exactly once, in order), so the faulty run's journal is
//     BYTE-IDENTICAL to the fault-free run's;
//   * the no-silent-loss arithmetic holds: converted observations ==
//     journaled + skipped + dropped, with every term surfaced in stats;
//   * backoff schedules are deterministic per seed and classification
//     routes 404s to fail-fast, 5xx/resets/stalls to retry.
//
// (The SIGKILL half of the story — crash-restart resume — lives in
// tests/ingest_kill_test.cpp, which drives the artemis_ingest binary.)
#include "ingest/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ingest/fault_server.hpp"
#include "ingest/fixture.hpp"
#include "mrt/mrt.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"

namespace artemis::ingest {
namespace {

namespace fs = std::filesystem;
using ingest_test::count_journal_records;
using ingest_test::Fault;
using ingest_test::FaultServer;
using ingest_test::fixture_window;
using ingest_test::fresh_dir;
using ingest_test::journal_bytes;
using ingest_test::replay_alert_lines;

/// Runs a supervisor over `urls` with backoff sleeps stubbed out.
IngestReport run_supervisor(const std::string& journal_dir,
                            const std::vector<std::string>& urls,
                            SupervisorOptions options = {}) {
  options.journal_dir = journal_dir;
  options.fetch.connect_timeout_ms = 2000;
  if (options.fetch.io_timeout_ms == 5000) options.fetch.io_timeout_ms = 2000;
  if (!options.sleep) options.sleep = [](std::int64_t) {};
  IngestSupervisor supervisor(std::move(options), urls);
  return supervisor.run();
}

void expect_no_silent_loss(const SourceReport& sr) {
  EXPECT_EQ(sr.feed.convert.observations,
            sr.feed.observations_journaled + sr.feed.observations_skipped +
                sr.feed.observations_dropped)
      << sr.url;
}

// ------------------------------------------------------------ URL layer

TEST(IngestHttpTest, ParseUrl) {
  const auto url = parse_url("http://archive.example.org/route-views/rib.bz2");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "archive.example.org");
  EXPECT_EQ(url->port, "80");
  EXPECT_EQ(url->target, "/route-views/rib.bz2");

  const auto with_port = parse_url("HTTP://127.0.0.1:8080/x?y=1");
  ASSERT_TRUE(with_port.has_value());
  EXPECT_EQ(with_port->scheme, "http");
  EXPECT_EQ(with_port->port, "8080");
  EXPECT_EQ(with_port->target, "/x?y=1");

  const auto bare = parse_url("http://host");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->target, "/");

  EXPECT_FALSE(parse_url("not a url").has_value());
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("http://host:port/x").has_value());
}

TEST(IngestHttpTest, StatusClassification) {
  EXPECT_EQ(classify_status(200), FetchOutcome::kOk);
  EXPECT_EQ(classify_status(206), FetchOutcome::kOk);
  EXPECT_EQ(classify_status(416), FetchOutcome::kOk);
  EXPECT_EQ(classify_status(500), FetchOutcome::kTransient);
  EXPECT_EQ(classify_status(503), FetchOutcome::kTransient);
  EXPECT_EQ(classify_status(408), FetchOutcome::kTransient);
  EXPECT_EQ(classify_status(429), FetchOutcome::kTransient);
  EXPECT_EQ(classify_status(404), FetchOutcome::kPermanent);
  EXPECT_EQ(classify_status(403), FetchOutcome::kPermanent);
  EXPECT_EQ(classify_status(301), FetchOutcome::kPermanent);
}

TEST(IngestHttpTest, HttpsClassifiesPermanentWithMirrorHint) {
  const auto url = parse_url("https://archive.example.org/rib.bz2");
  ASSERT_TRUE(url.has_value());
  const HttpResult result = http_get(*url, {}, [](auto) {});
  EXPECT_EQ(result.outcome, FetchOutcome::kPermanent);
  EXPECT_NE(result.error.find("http:// mirror"), std::string::npos);
}

// ---------------------------------------------------------- backoff

TEST(IngestBackoffTest, DeterministicPerSeedAndCapped) {
  FetchPolicy policy;
  policy.backoff_ms = 100;
  policy.max_backoff_ms = 1000;
  Rng a(42), b(42), c(7);
  std::vector<std::int64_t> da, db, dc;
  for (int retry = 0; retry < 12; ++retry) {
    da.push_back(backoff_delay_ms(policy, retry, a));
    db.push_back(backoff_delay_ms(policy, retry, b));
    dc.push_back(backoff_delay_ms(policy, retry, c));
  }
  EXPECT_EQ(da, db);  // same seed, same schedule
  EXPECT_NE(da, dc);  // different seed, different jitter
  for (int retry = 0; retry < 12; ++retry) {
    const std::int64_t base =
        std::min<std::int64_t>(policy.max_backoff_ms, policy.backoff_ms << retry);
    EXPECT_GE(da[retry], base / 2) << "retry " << retry;
    EXPECT_LE(da[retry], base) << "retry " << retry;
  }
  // Deep retry counts must not overflow into negative delays.
  Rng deep(1);
  EXPECT_GT(backoff_delay_ms(policy, 63, deep), 0);
}

// ---------------------------------------------------- FetchSource faults

class FetchSourceTest : public ::testing::Test {
 protected:
  FetchPolicy fast_policy() {
    FetchPolicy policy;
    policy.max_retries = 4;
    policy.backoff_ms = 1;
    policy.max_backoff_ms = 4;
    policy.connect_timeout_ms = 2000;
    policy.io_timeout_ms = 300;  // stalls classify fast
    return policy;
  }

  /// Fetches `path` from the server, collecting the delivered bytes and
  /// the backoff sleeps.
  FetchOutcome fetch(FaultServer& server, const std::string& path,
                     std::vector<std::uint8_t>& delivered,
                     std::vector<std::int64_t>* sleeps = nullptr) {
    source_ = std::make_unique<FetchSource>(server.url_for(path), fast_policy(),
                                            Rng(99).fork(path));
    return source_->run(
        [&](std::span<const std::uint8_t> data) {
          delivered.insert(delivered.end(), data.begin(), data.end());
        },
        [&](std::int64_t ms) {
          if (sleeps != nullptr) sleeps->push_back(ms);
        });
  }

  std::unique_ptr<FetchSource> source_;
};

TEST_F(FetchSourceTest, CleanFetchDeliversEverything) {
  FaultServer server;
  const auto content = fixture_window(3);
  server.add_file("/w.mrt", content);
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
  EXPECT_EQ(source_->state(), SourceState::kDone);
  EXPECT_EQ(source_->stats().attempts, 1u);
  EXPECT_EQ(source_->stats().bytes_fetched, content.size());
}

TEST_F(FetchSourceTest, NotFoundFailsFastWithoutRetries) {
  FaultServer server;
  std::vector<std::uint8_t> delivered;
  std::vector<std::int64_t> sleeps;
  EXPECT_EQ(fetch(server, "/missing", delivered, &sleeps),
            FetchOutcome::kPermanent);
  EXPECT_EQ(source_->state(), SourceState::kFailed);
  EXPECT_EQ(source_->stats().attempts, 1u);  // no retry spent on a 404
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(source_->stats().last_status, 404);
}

TEST_F(FetchSourceTest, ServerErrorsBackOffThenSucceed) {
  FaultServer server;
  const auto content = fixture_window();
  server.add_file("/w.mrt", content);
  server.push_fault({.kind = Fault::Kind::kStatus, .status = 503});
  server.push_fault({.kind = Fault::Kind::kStatus, .status = 500});
  std::vector<std::uint8_t> delivered;
  std::vector<std::int64_t> sleeps;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered, &sleeps), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
  EXPECT_EQ(source_->stats().attempts, 3u);
  EXPECT_EQ(sleeps.size(), 2u);
}

TEST_F(FetchSourceTest, RetryBudgetExhaustsOnPersistent5xx) {
  FaultServer server;
  server.add_file("/w.mrt", fixture_window());
  for (int i = 0; i < 16; ++i) {
    server.push_fault({.kind = Fault::Kind::kStatus, .status = 503});
  }
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kTransient);
  EXPECT_EQ(source_->state(), SourceState::kFailed);
  // max_retries=4 consecutive no-progress failures => 5 attempts total.
  EXPECT_EQ(source_->stats().attempts, 5u);
  EXPECT_TRUE(delivered.empty());
}

TEST_F(FetchSourceTest, ConnectionResetMidBodyResumesWithRange) {
  FaultServer server;
  const auto content = fixture_window(4);
  server.add_file("/w.mrt", content);
  server.push_fault({.kind = Fault::Kind::kResetAfterBytes, .bytes = 37});
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);  // exactly once, in order, across the cut
  EXPECT_GE(server.range_requests(), 1u);  // the resume really used Range
  EXPECT_EQ(source_->stats().bytes_discarded, 0u);
}

TEST_F(FetchSourceTest, CleanCloseMidBodyResumesToo) {
  FaultServer server;
  const auto content = fixture_window(4);
  server.add_file("/w.mrt", content);
  server.push_fault({.kind = Fault::Kind::kCloseAfterBytes, .bytes = 101});
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
}

TEST_F(FetchSourceTest, RangeIgnoringServerGetsPrefixDiscarded) {
  FaultServer server;
  const auto content = fixture_window(4);
  server.add_file("/w.mrt", content);
  server.push_fault({.kind = Fault::Kind::kCloseAfterBytes, .bytes = 64});
  server.push_fault({.kind = Fault::Kind::kIgnoreRange});
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);  // still exactly once despite the restart
  EXPECT_EQ(source_->stats().bytes_discarded, 64u);
}

TEST_F(FetchSourceTest, StallClassifiesTransientAndRecovers) {
  FaultServer server;
  const auto content = fixture_window(2);
  server.add_file("/w.mrt", content);
  server.push_fault(
      {.kind = Fault::Kind::kStallThenClose, .bytes = 16, .stall_ms = 700});
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
  EXPECT_NE(source_->stats().retries, 0u);
}

TEST_F(FetchSourceTest, ChunkedBodyDeliversExactBytesAcrossSplitReads) {
  FaultServer server;
  const auto content = fixture_window(3);
  server.add_file("/w.mrt", content);
  // 100-byte chunks sent 7 bytes at a time: size lines, extensions,
  // payloads and CRLFs all straddle socket reads.
  server.push_fault({.kind = Fault::Kind::kChunked, .bytes = 100});
  server.set_dribble(7, 1);
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
  EXPECT_EQ(source_->stats().attempts, 1u);
  EXPECT_EQ(source_->stats().bytes_fetched, content.size());
}

TEST(IngestHttpTest, OverlongChunkSizeLineFailsTheAttempt) {
  // A peer that never ends a chunk-size line must not grow ingest memory:
  // the attempt fails, transient, once the line passes the cap.
  FaultServer server;
  server.add_file("/w.mrt", fixture_window());
  server.push_fault({.kind = Fault::Kind::kChunkSizeFlood, .bytes = 256u << 10});
  const auto url = parse_url(server.url_for("/w.mrt"));
  ASSERT_TRUE(url.has_value());
  HttpGetOptions options;
  options.io_timeout_ms = 2000;
  std::uint64_t delivered = 0;
  const HttpResult result = http_get(
      *url, options, [&](std::span<const std::uint8_t> data) { delivered += data.size(); });
  EXPECT_EQ(result.outcome, FetchOutcome::kTransient);
  EXPECT_EQ(result.error, "chunk-size line exceeds " + std::to_string(kMaxChunkSizeLine) +
                              " bytes");
  EXPECT_EQ(delivered, 0u);
}

TEST_F(FetchSourceTest, WrongContentLengthReadsAsShortBodyAndResumes) {
  FaultServer server;
  const auto content = fixture_window(3);
  server.add_file("/w.mrt", content);
  server.push_fault(
      {.kind = Fault::Kind::kWrongContentLength, .length_delta = 512});
  std::vector<std::uint8_t> delivered;
  EXPECT_EQ(fetch(server, "/w.mrt", delivered), FetchOutcome::kOk);
  EXPECT_EQ(delivered, content);
}

// ------------------------------------------------------------ pipeline

TEST(IngestPipelineTest, ChunkFedJournalMatchesWholeFileImport) {
  const auto window = fixture_window(3);

  // Reference: the established import path.
  const std::string ref_dir = fresh_dir("pipe_ref");
  {
    const auto src = fs::path(fresh_dir("pipe_ref_src"));
    fs::create_directories(src);
    std::ofstream out(src / "w.mrt", std::ios::binary);
    out.write(reinterpret_cast<const char*>(window.data()),
              static_cast<std::streamsize>(window.size()));
    out.close();
    const std::string paths[] = {(src / "w.mrt").string()};
    mrt::import_mrt_files(paths, ref_dir);
  }

  // Pipeline, fed in awkward 7-byte chunks.
  const std::string dir = fresh_dir("pipe_chunked");
  {
    journal::JournalWriter writer(dir);
    IngestPipeline pipeline(writer);
    pipeline.begin_source();
    for (std::size_t i = 0; i < window.size(); i += 7) {
      const std::size_t n = std::min<std::size_t>(7, window.size() - i);
      pipeline.feed({window.data() + i, n});
    }
    const SourceFeedStats stats = pipeline.finish_source();
    EXPECT_TRUE(stats.convert.clean());
    EXPECT_EQ(stats.compression, mrt::Compression::kNone);
    EXPECT_EQ(stats.bytes_in, window.size());
    EXPECT_EQ(stats.observations_journaled, stats.convert.observations);
    writer.close();
  }
  EXPECT_EQ(journal_bytes(dir), journal_bytes(ref_dir));
}

TEST(IngestPipelineTest, SkipShimDropsExactlyTheResumePrefix) {
  const auto window = fixture_window(2);
  const std::string full_dir = fresh_dir("skip_full");
  std::uint64_t total_obs = 0;
  {
    journal::JournalWriter writer(full_dir);
    IngestPipeline pipeline(writer);
    pipeline.begin_source();
    pipeline.feed(window);
    total_obs = pipeline.finish_source().convert.observations;
    writer.close();
  }
  ASSERT_GT(total_obs, 3u);

  const std::string skip_dir = fresh_dir("skip_part");
  {
    journal::JournalWriter writer(skip_dir);
    IngestPipeline pipeline(writer);
    pipeline.begin_source(3);
    pipeline.feed(window);
    const SourceFeedStats stats = pipeline.finish_source();
    EXPECT_EQ(stats.observations_skipped, 3u);
    EXPECT_EQ(stats.observations_journaled, total_obs - 3);
    EXPECT_EQ(stats.convert.observations, total_obs);
    writer.close();
  }
  EXPECT_EQ(count_journal_records(skip_dir), total_obs - 3);
}

TEST(IngestPipelineTest, DropPolicyShedsWithExplicitAccounting) {
  const auto window = fixture_window(64);
  const std::string dir = fresh_dir("drop");
  journal::JournalWriterOptions jopts;
  jopts.buffer_bytes = 1u << 20;  // big buffer: lag only drains via policy
  journal::JournalWriter writer(dir, jopts);
  PipelineOptions popts;
  popts.convert.batch_capacity = 16;
  popts.max_lag_records = 32;
  popts.lag_policy = LagPolicy::kDrop;
  IngestPipeline pipeline(writer, popts);
  pipeline.begin_source();
  pipeline.feed(window);
  const SourceFeedStats stats = pipeline.finish_source();
  writer.close();

  EXPECT_GT(stats.observations_dropped, 0u);
  EXPECT_GT(stats.batches_dropped, 0u);
  // No silent loss: every converted observation is accounted somewhere.
  EXPECT_EQ(stats.convert.observations,
            stats.observations_journaled + stats.observations_skipped +
                stats.observations_dropped);
  EXPECT_EQ(count_journal_records(dir), stats.observations_journaled);
}

TEST(IngestPipelineTest, FlushPolicyBoundsLagLosslessly) {
  const auto window = fixture_window(64);
  const std::string dir = fresh_dir("flush");
  journal::JournalWriterOptions jopts;
  jopts.buffer_bytes = 1u << 20;
  journal::JournalWriter writer(dir, jopts);
  PipelineOptions popts;
  popts.convert.batch_capacity = 16;
  popts.max_lag_records = 32;
  popts.lag_policy = LagPolicy::kFlush;
  IngestPipeline pipeline(writer, popts);
  pipeline.begin_source();
  std::uint64_t max_seen_lag = 0;
  for (std::size_t i = 0; i < window.size(); i += 512) {
    const std::size_t n = std::min<std::size_t>(512, window.size() - i);
    pipeline.feed({window.data() + i, n});
    max_seen_lag = std::max(max_seen_lag, writer.records_buffered());
  }
  const SourceFeedStats stats = pipeline.finish_source();
  writer.close();

  EXPECT_EQ(stats.observations_dropped, 0u);
  EXPECT_GT(stats.lag_flushes, 0u);
  // The bound: lag never exceeds max_lag + one batch (the check is per
  // batch, before append).
  EXPECT_LE(max_seen_lag, popts.max_lag_records + popts.convert.batch_capacity);
  EXPECT_EQ(count_journal_records(dir), stats.convert.observations);
}

#ifdef ARTEMIS_HAVE_ZLIB
TEST(IngestPipelineTest, TornGzipStreamRecoversPrefixAndAccountsTruncation) {
  const auto window = fixture_window(32);
  auto gz = mrt::gzip_compress(window);
  gz.resize(gz.size() / 2);

  const std::string dir = fresh_dir("torn_gz");
  journal::JournalWriter writer(dir);
  IngestPipeline pipeline(writer);
  pipeline.begin_source();
  pipeline.feed(gz);
  const SourceFeedStats stats = pipeline.finish_source();
  writer.close();

  EXPECT_EQ(stats.compression, mrt::Compression::kGzip);
  EXPECT_TRUE(stats.stream_truncated);
  EXPECT_TRUE(stats.convert.truncated);
  EXPECT_GT(stats.observations_journaled, 0u);
  EXPECT_EQ(count_journal_records(dir), stats.observations_journaled);
}
#endif

// ------------------------------------------------------------ cursor

TEST(IngestCursorTest, RoundTripAndAtomicReplace) {
  const std::string dir = fresh_dir("cursor");
  fs::create_directories(dir);
  EXPECT_FALSE(load_ingest_cursor(dir).has_value());

  IngestCursor cursor;
  cursor.url_index = 3;
  cursor.url = "http://mirror/a.mrt.gz";
  cursor.start_seq = 123456;
  cursor.start_clock_us = 99'000'017;
  store_ingest_cursor(dir, cursor);

  const auto loaded = load_ingest_cursor(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->url_index, 3u);
  EXPECT_EQ(loaded->url, "http://mirror/a.mrt.gz");
  EXPECT_EQ(loaded->start_seq, 123456u);
  EXPECT_EQ(loaded->start_clock_us, 99'000'017);

  cursor.url_index = 4;
  cursor.start_seq = 200000;
  store_ingest_cursor(dir, cursor);
  EXPECT_EQ(load_ingest_cursor(dir)->start_seq, 200000u);
  EXPECT_FALSE(fs::exists(dir + "/ingest-cursor.json.tmp"));
}

TEST(IngestCursorTest, JournalReaderIgnoresCursorFile) {
  const std::string dir = fresh_dir("cursor_reader");
  {
    journal::JournalWriter writer(dir);
    IngestPipeline pipeline(writer);
    pipeline.begin_source();
    pipeline.feed(fixture_window());
    pipeline.finish_source();
    writer.close();
  }
  IngestCursor cursor;
  cursor.url = "http://mirror/w.mrt";
  store_ingest_cursor(dir, cursor);
  EXPECT_GT(count_journal_records(dir), 0u);  // reader unfazed by the json
}

// ----------------------------------------------------- supervisor e2e

TEST(IngestSupervisorTest, FaultyRunJournalByteIdenticalToCleanRun) {
  // The strongest statement of fault transparency: a run through 503s, a
  // mid-body RST, a stall and a Range-ignoring restart writes the very
  // same journal bytes as a run with no faults at all.
  const auto window = fixture_window(8);
#ifdef ARTEMIS_HAVE_ZLIB
  const auto entity = mrt::gzip_compress(window);
#else
  const auto& entity = window;
#endif

  const std::string clean_dir = fresh_dir("sup_clean");
  {
    FaultServer server;
    server.add_file("/w", entity);
    const auto report = run_supervisor(clean_dir, {server.url_for("/w")});
    ASSERT_EQ(report.sources_done, 1u);
  }

  const std::string faulty_dir = fresh_dir("sup_faulty");
  {
    FaultServer server;
    server.add_file("/w", entity);
    server.push_fault({.kind = Fault::Kind::kStatus, .status = 503});
    server.push_fault({.kind = Fault::Kind::kResetAfterBytes, .bytes = 33});
    server.push_fault(
        {.kind = Fault::Kind::kStallThenClose, .bytes = 20, .stall_ms = 700});
    server.push_fault({.kind = Fault::Kind::kIgnoreRange});
    SupervisorOptions options;
    options.fetch.io_timeout_ms = 300;
    options.fetch.backoff_ms = 1;
    options.fetch.max_backoff_ms = 2;
    const auto report =
        run_supervisor(faulty_dir, {server.url_for("/w")}, std::move(options));
    ASSERT_EQ(report.sources_done, 1u);
    ASSERT_EQ(report.sources.size(), 1u);
    EXPECT_GT(report.sources[0].fetch.retries, 0u);
    expect_no_silent_loss(report.sources[0]);
  }

  EXPECT_EQ(journal_bytes(faulty_dir), journal_bytes(clean_dir));
  EXPECT_EQ(replay_alert_lines(faulty_dir, 4), replay_alert_lines(clean_dir, 1));
}

TEST(IngestSupervisorTest, IdleSocketFlushesPartialBatchBeforeStallEnds) {
  // A quiet live feed: the mirror sends one hijack record, then nothing
  // for 1.5 s (under the read timeout), then closes mid-body. The batch
  // is nowhere near batch_capacity, so only the idle flush can raise the
  // alert while the connection is still stalled.
  const auto window = fixture_window();
  const auto first = mrt::encode_update_record(
      ingest_test::make_update(9, 100, {"10.0.0.0/23"}, {9, 3356, 666}));
  ASSERT_TRUE(std::equal(first.begin(), first.end(), window.begin()));
  FaultServer server;
  server.add_file("/live", window);
  server.push_fault(
      {.kind = Fault::Kind::kStallThenClose, .bytes = first.size(), .stall_ms = 1500});

  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> first_alert;
  std::optional<Clock::time_point> stall_over;
  pipeline::ShardedDetector detector(ingest_test::make_config(), {});
  detector.on_alert([&](const core::HijackAlert&) {
    if (!first_alert) first_alert = Clock::now();
  });
  SupervisorOptions options;
  options.fetch.io_timeout_ms = 4000;
  options.fetch.backoff_ms = 1;
  options.fetch.max_backoff_ms = 2;
  // The stalled attempt ends when the server closes; the backoff before
  // the resuming retry is the run's first sleep.
  options.sleep = [&](std::int64_t) {
    if (!stall_over) stall_over = Clock::now();
  };
  options.pipeline.detection_tap = [&](std::span<const feeds::Observation> batch) {
    detector.submit_batch(batch);
  };
  const std::string dir = fresh_dir("sup_idle");
  const auto report = run_supervisor(dir, {server.url_for("/live")}, std::move(options));
  ASSERT_EQ(report.sources_done, 1u);
  ASSERT_TRUE(first_alert.has_value());
  ASSERT_TRUE(stall_over.has_value());
  EXPECT_LT(*first_alert, *stall_over) << "the alert waited for the stall to end";
  // Small batches, same stream: the live alerts are the journal's.
  std::vector<std::string> live;
  for (const auto& alert : detector.merged_alerts()) live.push_back(alert.to_string());
  EXPECT_EQ(live, replay_alert_lines(dir, 1));
}

TEST(IngestSupervisorTest, PermanentFailureSkipsToNextUrl) {
  const auto window = fixture_window(2);
  FaultServer server;
  server.add_file("/good", window);
  const std::string dir = fresh_dir("sup_404");
  const auto report = run_supervisor(
      dir, {server.url_for("/missing"), server.url_for("/good")});
  EXPECT_EQ(report.sources_failed, 1u);
  EXPECT_EQ(report.sources_done, 1u);
  ASSERT_EQ(report.sources.size(), 2u);
  EXPECT_EQ(report.sources[0].outcome, FetchOutcome::kPermanent);
  EXPECT_EQ(report.sources[1].outcome, FetchOutcome::kOk);
  EXPECT_EQ(count_journal_records(dir), report.records_journaled);
}

TEST(IngestSupervisorTest, RestartAfterCompletionAppendsNothing) {
  const auto window = fixture_window(2);
  FaultServer server;
  server.add_file("/w", window);
  const std::string dir = fresh_dir("sup_idem");
  const std::vector<std::string> urls = {server.url_for("/w")};

  const auto first = run_supervisor(dir, urls);
  ASSERT_EQ(first.sources_done, 1u);
  const auto bytes_before = journal_bytes(dir);

  // Same arguments, same journal dir: the restart re-fetches the cursor's
  // URL, skips every observation at the shim, and appends zero records.
  const auto second = run_supervisor(dir, urls);
  ASSERT_EQ(second.sources.size(), 1u);
  EXPECT_TRUE(second.sources[0].resumed);
  EXPECT_EQ(second.sources[0].feed.observations_journaled, 0u);
  EXPECT_EQ(second.sources[0].feed.observations_skipped,
            second.sources[0].feed.convert.observations);
  expect_no_silent_loss(second.sources[0]);
  EXPECT_EQ(journal_bytes(dir), bytes_before);
}

TEST(IngestSupervisorTest, ResumeMidUrlContinuesWithoutDupOrLoss) {
  // Simulated crash: journal the first K observations of the window (as
  // the dead incarnation did), persist the cursor it would have written,
  // then run a fresh supervisor. The result must equal the never-crashed
  // run — same records, same replayed alerts at shards 1 and 4.
  const auto window = fixture_window(6);
  FaultServer server;
  server.add_file("/w", window);
  const std::vector<std::string> urls = {server.url_for("/w")};

  const std::string clean_dir = fresh_dir("sup_resume_clean");
  const auto clean = run_supervisor(clean_dir, urls);
  ASSERT_EQ(clean.sources_done, 1u);
  const std::uint64_t total = clean.records_journaled;
  ASSERT_GT(total, 8u);

  const std::string crash_dir = fresh_dir("sup_resume_crash");
  {
    // The pre-crash half: durable journal holding a prefix + the cursor
    // written before the URL started. Small batches so part of the feed
    // actually reaches the writer before the "crash".
    journal::JournalWriter writer(crash_dir);
    PipelineOptions popts;
    popts.convert.batch_capacity = 4;
    IngestPipeline pipeline(writer, popts);
    IngestCursor cursor;
    cursor.url_index = 0;
    cursor.url = urls[0];
    cursor.start_seq = writer.next_sequence();
    cursor.start_clock_us = pipeline.converter().clock_us();
    store_ingest_cursor(crash_dir, cursor);
    pipeline.begin_source();
    // Feed only part of the stream, then "die": flush what a real crash
    // would have left durable and abandon the rest.
    pipeline.feed({window.data(), window.size() / 3});
    writer.flush();
    // (No finish_source / close: the crash happened mid-stream. The
    // writer's destructor flushes its tail, which only makes MORE records
    // durable — the resume math handles any durable prefix.)
  }
  const std::uint64_t durable = count_journal_records(crash_dir);
  ASSERT_GT(durable, 0u);
  ASSERT_LT(durable, total);

  const auto resumed = run_supervisor(crash_dir, urls);
  ASSERT_EQ(resumed.sources.size(), 1u);
  EXPECT_TRUE(resumed.sources[0].resumed);
  EXPECT_EQ(resumed.sources[0].feed.observations_skipped, durable);
  expect_no_silent_loss(resumed.sources[0]);
  EXPECT_EQ(count_journal_records(crash_dir), total);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(replay_alert_lines(crash_dir, shards),
              replay_alert_lines(clean_dir, shards));
  }
}

TEST(IngestSupervisorTest, StatsJsonCarriesTheLedger) {
  const auto window = fixture_window(2);
  FaultServer server;
  server.add_file("/w", window);
  server.push_fault({.kind = Fault::Kind::kStatus, .status = 503});
  const std::string dir = fresh_dir("sup_json");
  SupervisorOptions options;
  options.fetch.backoff_ms = 1;
  options.fetch.max_backoff_ms = 2;
  options.journal.fsync_policy = journal::FsyncPolicy::kOnRotate;
  const auto snapshot = options;  // run_supervisor moves it
  const auto report = run_supervisor(dir, {server.url_for("/w")}, options);

  SupervisorOptions render = snapshot;
  render.journal_dir = dir;
  const json::Value doc = ingest_report_to_json(render, report);
  EXPECT_EQ(doc.get_string("fsync_policy", ""), "on_rotate");
  EXPECT_EQ(doc.get_string("lag_policy", ""), "flush");
  EXPECT_EQ(doc.get_int("sources_done", -1), 1);
  const auto& sources = doc.at("sources").as_array();
  ASSERT_EQ(sources.size(), 1u);
  const auto& s = sources[0];
  EXPECT_EQ(s.get_int("retries", 0), 1);
  EXPECT_EQ(s.get_int("observations_converted", -1),
            s.get_int("observations_journaled", -2) +
                s.get_int("observations_skipped", 0) +
                s.get_int("observations_dropped", 0));
  EXPECT_EQ(s.get_int("bytes_fetched", -1),
            static_cast<std::int64_t>(window.size()));
}

}  // namespace
}  // namespace artemis::ingest
