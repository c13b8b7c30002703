#include "ingest/supervisor.hpp"

#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace artemis::ingest {
namespace {

constexpr std::string_view kCursorFile = "ingest-cursor.json";

void sleep_ms(std::int64_t ms) {
  if (ms <= 0) return;
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1'000'000;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

std::string cursor_path(const std::string& journal_dir) {
  return journal_dir + "/" + std::string(kCursorFile);
}

std::string_view compression_name(mrt::Compression compression) {
  switch (compression) {
    case mrt::Compression::kNone: return "none";
    case mrt::Compression::kGzip: return "gzip";
    case mrt::Compression::kBzip2: return "bzip2";
  }
  return "none";
}

}  // namespace

std::optional<IngestCursor> load_ingest_cursor(const std::string& journal_dir) {
  const std::string path = cursor_path(journal_dir);
  if (!std::filesystem::exists(path)) return std::nullopt;
  const json::Value doc = json::parse_file(path);
  IngestCursor cursor;
  cursor.url_index = static_cast<std::uint64_t>(doc.get_int("url_index", 0));
  cursor.url = doc.get_string("url", "");
  cursor.start_seq = static_cast<std::uint64_t>(doc.get_int("start_seq", 0));
  cursor.start_clock_us = doc.get_int("start_clock_us", 0);
  return cursor;
}

void store_ingest_cursor(const std::string& journal_dir,
                         const IngestCursor& cursor) {
  json::Object doc;
  doc["version"] = json::Value(std::int64_t{1});
  doc["url_index"] = json::Value(static_cast<std::int64_t>(cursor.url_index));
  doc["url"] = json::Value(cursor.url);
  doc["start_seq"] = json::Value(static_cast<std::int64_t>(cursor.start_seq));
  doc["start_clock_us"] = json::Value(cursor.start_clock_us);
  const std::string text = json::Value(std::move(doc)).dump(2);

  // tmp + rename: the cursor is either the old complete file or the new
  // complete file, never a torn hybrid — a SIGKILL between the two leaves
  // the previous cursor, which resume handles (it just re-skips more).
  const std::string path = cursor_path(journal_dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    if (!out) {
      throw journal::JournalError("cannot write ingest cursor " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw journal::JournalError("cannot rename ingest cursor into place: " +
                                ec.message());
  }
}

IngestSupervisor::IngestSupervisor(SupervisorOptions options,
                                   std::vector<std::string> urls)
    : options_(std::move(options)),
      urls_(std::move(urls)),
      writer_(options_.journal_dir, options_.journal),
      pipeline_(writer_, options_.pipeline) {
  if (!options_.sleep) options_.sleep = sleep_ms;
  // Count backoff waits at the one choke point every retry path shares.
  // Wrapping happens once here — the per-wait cost is two relaxed adds.
  if (pipeline_.metrics().enabled()) {
    const telemetry::IngestCounters& metrics = pipeline_.metrics();
    FetchSource::SleepFn inner = std::move(options_.sleep);
    options_.sleep = [inner = std::move(inner), &metrics](std::int64_t ms) {
      metrics.backoff_waits->add();
      if (ms > 0) metrics.backoff_ms->add(static_cast<std::uint64_t>(ms));
      inner(ms);
    };
  }
}

IngestReport IngestSupervisor::partial_report() const {
  IngestReport report = report_;
  report.records_journaled = writer_.records_written();
  report.journal_next_seq = writer_.next_sequence();
  report.journal_segments = writer_.segments_opened();
  report.journal_bytes = writer_.bytes_written();
  report.fsyncs = writer_.fsyncs();
  return report;
}

IngestReport IngestSupervisor::run() {
  report_ = IngestReport{};
  IngestReport& report = report_;

  // Where did the previous incarnation die? The cursor names the URL in
  // flight; the durable journal says how much of it survived.
  std::uint64_t first_index = 0;
  std::uint64_t resume_skip = 0;
  std::int64_t resume_clock_us = 0;
  bool resuming = false;
  const std::optional<IngestCursor> cursor =
      load_ingest_cursor(options_.journal_dir);
  if (cursor && cursor->url_index < urls_.size() &&
      urls_[cursor->url_index] == cursor->url) {
    first_index = cursor->url_index;
    if (writer_.next_sequence() < cursor->start_seq) {
      throw journal::JournalError(
          "ingest cursor claims sequence " + std::to_string(cursor->start_seq) +
          " but the journal resumes at " +
          std::to_string(writer_.next_sequence()) +
          " — cursor and journal are from different runs");
    }
    resume_skip = writer_.next_sequence() - cursor->start_seq;
    resume_clock_us = cursor->start_clock_us;
    resuming = true;
  }

  const Rng seed_rng(options_.seed);
  for (std::uint64_t i = first_index; i < urls_.size(); ++i) {
    const std::string& url = urls_[i];
    const bool resumed = resuming && i == first_index;
    const std::uint64_t skip = resumed ? resume_skip : 0;

    if (resumed) {
      pipeline_.converter().restore_clock(resume_clock_us);
    } else {
      // Flush first: the cursor's start_seq must never exceed what a
      // SIGKILL would leave durable, or restart's skip count underflows.
      writer_.flush();
      IngestCursor next;
      next.url_index = i;
      next.url = url;
      next.start_seq = writer_.next_sequence();
      next.start_clock_us = pipeline_.converter().clock_us();
      store_ingest_cursor(options_.journal_dir, next);
      if (pipeline_.metrics().cursor_persists != nullptr) {
        pipeline_.metrics().cursor_persists->add();
      }
    }

    FetchSource source(url, options_.fetch, seed_rng.fork(url));
    pipeline_.begin_source(skip);
    // Idle socket = flush the partial batch: a quiet live feed reaches
    // the journal and the detection tap within one read.
    const FetchOutcome outcome = source.run(
        [this](std::span<const std::uint8_t> data) { pipeline_.feed(data); },
        options_.sleep, [this] { pipeline_.idle(); });

    SourceReport sr;
    sr.url = url;
    sr.state = source.state();
    sr.outcome = outcome;
    sr.fetch = source.stats();
    if (pipeline_.metrics().enabled()) {
      pipeline_.metrics().bytes_fetched->add(sr.fetch.bytes_fetched);
      pipeline_.metrics().fetch_retries->add(sr.fetch.retries);
    }
    sr.feed = pipeline_.finish_source();
    sr.resumed = resumed;
    sr.resume_skipped = sr.feed.observations_skipped;
    if (outcome != FetchOutcome::kOk) {
      ++report.sources_failed;
    } else if (sr.feed.convert.truncated || !sr.feed.convert.error.empty()) {
      ++report.sources_truncated;
    } else {
      ++report.sources_done;
    }
    report.sources.push_back(std::move(sr));
  }

  report.records_journaled = writer_.records_written();
  report.journal_segments = writer_.segments_opened();
  report.fsyncs = writer_.fsyncs();
  writer_.close();
  report.journal_next_seq = writer_.next_sequence();
  report.journal_bytes = writer_.bytes_written();
  return report;
}

json::Value ingest_report_to_json(const SupervisorOptions& options,
                                  const IngestReport& report) {
  json::Object out;
  out["journal_dir"] = json::Value(options.journal_dir);
  out["fsync_policy"] = json::Value(fsync_policy_to_string(options.journal));
  out["lag_policy"] =
      json::Value(std::string(to_string(options.pipeline.lag_policy)));
  out["max_lag_records"] =
      json::Value(static_cast<std::int64_t>(options.pipeline.max_lag_records));
  out["sources_done"] = json::Value(static_cast<std::int64_t>(report.sources_done));
  out["sources_truncated"] =
      json::Value(static_cast<std::int64_t>(report.sources_truncated));
  out["sources_failed"] =
      json::Value(static_cast<std::int64_t>(report.sources_failed));
  out["records_journaled"] =
      json::Value(static_cast<std::int64_t>(report.records_journaled));
  out["journal_next_seq"] =
      json::Value(static_cast<std::int64_t>(report.journal_next_seq));
  out["journal_segments"] =
      json::Value(static_cast<std::int64_t>(report.journal_segments));
  out["journal_bytes"] =
      json::Value(static_cast<std::int64_t>(report.journal_bytes));
  out["fsyncs"] = json::Value(static_cast<std::int64_t>(report.fsyncs));

  json::Array sources;
  for (const SourceReport& sr : report.sources) {
    json::Object s;
    s["url"] = json::Value(sr.url);
    s["state"] = json::Value(std::string(to_string(sr.state)));
    s["outcome"] = json::Value(std::string(to_string(sr.outcome)));
    s["attempts"] = json::Value(static_cast<std::int64_t>(sr.fetch.attempts));
    s["retries"] = json::Value(static_cast<std::int64_t>(sr.fetch.retries));
    s["bytes_fetched"] =
        json::Value(static_cast<std::int64_t>(sr.fetch.bytes_fetched));
    s["bytes_discarded"] =
        json::Value(static_cast<std::int64_t>(sr.fetch.bytes_discarded));
    s["resume_offset"] =
        json::Value(static_cast<std::int64_t>(sr.fetch.resume_offset));
    s["last_backoff_ms"] = json::Value(sr.fetch.last_backoff_ms);
    s["last_status"] = json::Value(sr.fetch.last_status);
    if (!sr.fetch.last_error.empty()) {
      s["last_error"] = json::Value(sr.fetch.last_error);
    }
    s["compression"] =
        json::Value(std::string(compression_name(sr.feed.compression)));
    s["records"] =
        json::Value(static_cast<std::int64_t>(sr.feed.convert.records));
    s["skipped_records"] =
        json::Value(static_cast<std::int64_t>(sr.feed.convert.skipped_records));
    s["observations_converted"] =
        json::Value(static_cast<std::int64_t>(sr.feed.convert.observations));
    s["observations_journaled"] =
        json::Value(static_cast<std::int64_t>(sr.feed.observations_journaled));
    s["observations_skipped"] =
        json::Value(static_cast<std::int64_t>(sr.feed.observations_skipped));
    s["observations_dropped"] =
        json::Value(static_cast<std::int64_t>(sr.feed.observations_dropped));
    s["batches_dropped"] =
        json::Value(static_cast<std::int64_t>(sr.feed.batches_dropped));
    s["lag_flushes"] =
        json::Value(static_cast<std::int64_t>(sr.feed.lag_flushes));
    s["stream_truncated"] = json::Value(sr.feed.stream_truncated);
    s["truncated"] = json::Value(sr.feed.convert.truncated);
    s["resumed"] = json::Value(sr.resumed);
    sources.push_back(json::Value(std::move(s)));
  }
  out["sources"] = json::Value(std::move(sources));
  return json::Value(std::move(out));
}

}  // namespace artemis::ingest
