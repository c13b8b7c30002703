// journal_query: predicate queries over an observation journal — the
// flight-recorder forensics tool ("what did AS X announce for prefix P
// in window T?").
//
// Queries use the per-segment index footers (seg-<hex>.ajx): a segment
// whose footer proves no record can match is skipped without being
// opened — cold gzip segments stay compressed on disk. Records in the
// remaining segments are filtered exactly after decode, so the answer
// is always precise; footers only ever save work. Scan statistics
// (scanned vs skipped segments) are reported so the pruning is
// observable — the CI gate asserts a selective query scans only the
// footer-matching segments.
//
// Usage: journal_query --journal DIR [filters] [output] | --build-index
//   --prefix P      match records whose prefix overlaps P (covers or is
//                   covered by: sub-prefix hijacks and covering routes)
//   --source NAME   exact source name ("ris-live", "mrt:rrc00", ...)
//   --origin ASN    origin AS of the record's path
//   --type T        announce | withdraw | state
//   --since USEC    inclusive event-time lower bound, sim microseconds
//   --until USEC    inclusive event-time upper bound, sim microseconds
//   --limit N       stop after N matches
//   --json          one JSON document (query echo, matches, scan stats)
//                   on stdout instead of text lines
//   --count         print only the number of matches
//   --build-index   write missing index footers for sealed segments
//                   (after a crash, or for a journal recorded with
//                   indexing off), then exit
//
// Text output: one "<event_us> <observation>" line per match on stdout;
// scan statistics on stderr. Exit 0 on success (matches or none), 1 on
// hard errors (corrupt journal, unreadable directory), 2 on usage.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "journal/index.hpp"
#include "journal/reader.hpp"
#include "json/json.hpp"
#include "pipeline/observation_batch.hpp"

namespace {

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "error: %s\n", what);
  std::fprintf(stderr,
               "usage: journal_query --journal DIR [--prefix P] [--source NAME] "
               "[--origin ASN] [--type announce|withdraw|state] [--since USEC] "
               "[--until USEC] [--limit N] [--json] [--count]\n"
               "       journal_query --journal DIR --build-index\n");
  std::exit(2);
}

std::int64_t parse_int64(const char* text, const char* flag) {
  char* rest = nullptr;
  const long long value = std::strtoll(text, &rest, 10);
  if (rest == text || *rest != '\0') {
    usage_error((std::string(flag) + " must be an integer").c_str());
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace artemis;

  std::string journal_dir;
  journal::QueryFilter filter;
  std::uint64_t limit = 0;  // 0 = unlimited
  bool json_output = false;
  bool count_only = false;
  bool build_index = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--journal") {
      journal_dir = flag_value("--journal");
    } else if (arg == "--prefix") {
      const char* text = flag_value("--prefix");
      const auto prefix = net::Prefix::parse(text);
      if (!prefix) usage_error(("bad --prefix " + std::string(text)).c_str());
      filter.prefix = *prefix;
    } else if (arg == "--source") {
      filter.source = flag_value("--source");
      if (filter.source.empty()) usage_error("--source must be non-empty");
    } else if (arg == "--origin") {
      const char* text = flag_value("--origin");
      // strtoul silently wraps negatives ("-18446744073709551615" is 1):
      // require a leading digit.
      char* rest = nullptr;
      const unsigned long asn = std::strtoul(text, &rest, 10);
      if (*text < '0' || *text > '9' || *rest != '\0' || asn == 0 ||
          asn > 0xFFFFFFFFul) {
        usage_error("--origin must be an ASN in [1, 4294967295]");
      }
      filter.origin = static_cast<bgp::Asn>(asn);
    } else if (arg == "--type") {
      const std::string_view text = flag_value("--type");
      if (text == "announce") {
        filter.type = feeds::ObservationType::kAnnouncement;
      } else if (text == "withdraw") {
        filter.type = feeds::ObservationType::kWithdrawal;
      } else if (text == "state") {
        filter.type = feeds::ObservationType::kRouteState;
      } else {
        usage_error("--type must be announce, withdraw or state");
      }
    } else if (arg == "--since") {
      filter.min_event_us = parse_int64(flag_value("--since"), "--since");
    } else if (arg == "--until") {
      filter.max_event_us = parse_int64(flag_value("--until"), "--until");
    } else if (arg == "--limit") {
      const std::int64_t n = parse_int64(flag_value("--limit"), "--limit");
      if (n <= 0) usage_error("--limit must be > 0");
      limit = static_cast<std::uint64_t>(n);
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--count") {
      count_only = true;
    } else if (arg == "--build-index") {
      build_index = true;
    } else {
      usage_error(("unknown argument " + std::string(arg)).c_str());
    }
  }
  if (journal_dir.empty()) usage_error("--journal DIR is required");
  if (filter.min_event_us > filter.max_event_us) {
    usage_error("--since must not exceed --until");
  }

  try {
    if (build_index) {
      const std::size_t written = journal::build_missing_footers(journal_dir);
      std::fprintf(stderr, "wrote %zu index footer(s) in %s\n", written,
                   journal_dir.c_str());
      return 0;
    }

    journal::JournalReader reader(journal_dir);
    reader.set_filter(filter);

    json::Array matches;
    std::uint64_t matched = 0;
    bool truncated_by_limit = false;
    pipeline::ObservationBatch batch;
    while (!truncated_by_limit && reader.read_batch(batch, 1024) > 0) {
      for (const auto& obs : batch) {
        if (limit != 0 && matched == limit) {
          truncated_by_limit = true;
          break;
        }
        ++matched;
        if (count_only) continue;
        if (json_output) {
          json::Object m;
          m["type"] = json::Value(std::string(feeds::to_string(obs.type)));
          m["prefix"] = json::Value(obs.prefix.to_string());
          m["vantage"] = json::Value(static_cast<std::int64_t>(obs.vantage));
          m["origin"] = json::Value(static_cast<std::int64_t>(obs.origin_as()));
          m["as_path"] = json::Value(obs.attrs.as_path.to_string());
          m["source"] = json::Value(obs.source);
          m["event_us"] =
              json::Value(static_cast<std::int64_t>(obs.event_time.as_micros()));
          m["delivered_us"] = json::Value(
              static_cast<std::int64_t>(obs.delivered_at.as_micros()));
          matches.push_back(json::Value(std::move(m)));
        } else {
          std::printf("%" PRId64 " %s\n", obs.event_time.as_micros(),
                      obs.to_string().c_str());
        }
      }
    }

    if (json_output) {
      json::Object filter_echo;
      if (filter.prefix.has_value()) {
        filter_echo["prefix"] = json::Value(filter.prefix->to_string());
      }
      if (!filter.source.empty()) {
        filter_echo["source"] = json::Value(filter.source);
      }
      if (filter.origin != bgp::kNoAsn) {
        filter_echo["origin"] = json::Value(static_cast<std::int64_t>(filter.origin));
      }
      if (filter.type.has_value()) {
        filter_echo["type"] =
            json::Value(std::string(feeds::to_string(*filter.type)));
      }
      if (filter.min_event_us != std::numeric_limits<std::int64_t>::min()) {
        filter_echo["since_us"] = json::Value(filter.min_event_us);
      }
      if (filter.max_event_us != std::numeric_limits<std::int64_t>::max()) {
        filter_echo["until_us"] = json::Value(filter.max_event_us);
      }
      json::Object stats;
      stats["segments_total"] =
          json::Value(static_cast<std::int64_t>(reader.segment_count()));
      stats["segments_scanned"] =
          json::Value(static_cast<std::int64_t>(reader.segments_scanned()));
      stats["segments_skipped"] =
          json::Value(static_cast<std::int64_t>(reader.segments_skipped()));
      stats["records_scanned"] =
          json::Value(static_cast<std::int64_t>(reader.records_scanned()));
      json::Object out;
      out["journal_dir"] = json::Value(journal_dir);
      out["filter"] = json::Value(std::move(filter_echo));
      out["matches"] = json::Value(static_cast<std::int64_t>(matched));
      if (!count_only) out["observations"] = json::Value(std::move(matches));
      out["truncated_by_limit"] = json::Value(truncated_by_limit);
      out["truncated_tail"] = json::Value(reader.truncated_tail());
      out["stats"] = json::Value(std::move(stats));
      std::printf("%s\n", json::Value(std::move(out)).dump(2).c_str());
    } else if (count_only) {
      std::printf("%" PRIu64 "\n", matched);
    }
    if (reader.truncated_tail()) {
      std::fprintf(stderr, "warning: journal has a truncated tail record\n");
    }
    std::fprintf(stderr,
                 "%" PRIu64 " match(es); scanned %" PRIu64 "/%zu segment(s)"
                 " (%" PRIu64 " skipped via index), %" PRIu64
                 " record(s) decoded\n",
                 matched, reader.segments_scanned(), reader.segment_count(),
                 reader.segments_skipped(), reader.records_scanned());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
