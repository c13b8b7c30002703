// journal_alerts: replay an observation journal through detection and
// print the canonical merged alert list.
//
// The CI replay-determinism gate is built on this tool: replay the same
// journal at --shards 1 and --shards 4 on every compiler in the matrix
// and diff the output against a checked-in golden file — bit-identity of
// the whole import -> journal -> replay -> detection path, enforced per
// commit. It is also a handy archive forensics tool: import a RouteViews
// window with mrt2journal, then ask "which of MY prefixes were hijacked
// in this window?" without writing a scenario file.
//
// Usage: journal_alerts --journal DIR (--owned SPEC | --config FILE)
//                       [--shards N] [...]
//   --journal DIR   journal directory (mrt2journal / scenario_runner)
//   --owned SPEC    an owned prefix and its legitimate origin ASNs,
//                   e.g. 10.0.0.0/23=65001 or 2001:db8::/32=65003,65004
//                   (repeatable)
//   --config FILE   ownership config JSON (schema v1 or the multi-tenant
//                   v2 "tenants" form). Combines with --owned: the flag
//                   prefixes join the config's default tenant. At least
//                   one of --owned/--config is required.
//   --shards N      detection shard count (default 1). Output is
//                   bit-identical for every N — that is the point.
//   --threaded      one worker thread per shard (batch-granular ring
//                   handoff) instead of inline dispatch. Output is still
//                   bit-identical — the CI gate replays a threaded leg
//                   against the same golden file.
//   --wait-policy P busy_poll (default) or futex, with --threaded
//   --pin           pin shard workers to consecutive CPUs, with --threaded
//   --since-us N    only replay records with event time >= N sim-micros
//   --until-us N    only replay records with event time <= N sim-micros
//   --no-prune      do not project the owned prefixes into the journal
//                   read filter (scan every segment)
//
// Footer-accelerated forensics: by default the owned prefixes are
// projected into the journal QueryFilter as an any-overlap term, so the
// reader's .ajx footers prune segments that provably never mention owned
// space — a month of archive with one hijacked afternoon decodes only
// the afternoon. The projection cannot change the alert list (an alert
// REQUIRES an overlapping owned prefix; without a ROA table non-
// overlapping observations are unclassifiable), which is why it is safe
// to have on by default; --since/--until genuinely restrict the window.
// The scan/skip counters go to stderr and are asserted by the CI gate.
//
// Output: one canonical HijackAlert::to_string() line per merged alert
// (sorted by detected_at, type, prefix, offender), then nothing else on
// stdout. Progress and statistics go to stderr. Exit 0 on success (alerts
// or not), 1 on hard errors, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "artemis/config.hpp"
#include "feeds/monitor_hub.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "pipeline/sharded_detector.hpp"

namespace {

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "error: %s\n", what);
  std::fprintf(stderr,
               "usage: journal_alerts --journal DIR (--owned PREFIX=ASN[,ASN...] "
               "| --config FILE) [--owned ...] [--shards N] [--threaded "
               "[--wait-policy busy_poll|futex] [--pin]] "
               "[--since-us N] [--until-us N] [--no-prune]\n");
  std::exit(2);
}

std::int64_t parse_micros(const char* text, const char* flag) {
  char* rest = nullptr;
  const long long value = std::strtoll(text, &rest, 10);
  if (rest == text || *rest != '\0') {
    usage_error((std::string(flag) + " needs an integer (sim micros)").c_str());
  }
  return static_cast<std::int64_t>(value);
}

/// One --owned flag: a prefix and its legitimate origins.
struct OwnedFlag {
  artemis::net::Prefix prefix;
  std::vector<artemis::bgp::Asn> origins;
};

/// Parses "10.0.0.0/23=65001,65002".
OwnedFlag parse_owned(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) usage_error("--owned needs PREFIX=ASN[,ASN...]");
  const auto prefix = artemis::net::Prefix::parse(spec.substr(0, eq));
  if (!prefix) usage_error(("bad prefix in --owned " + spec).c_str());
  OwnedFlag owned;
  owned.prefix = *prefix;
  std::size_t pos = eq + 1;
  while (pos < spec.size()) {
    // strtoul silently wraps negatives; require a leading digit, and
    // reject AS0 (reserved, RFC 7607 — Config::from_json does the same).
    if (spec[pos] < '0' || spec[pos] > '9') {
      usage_error(("bad ASN in --owned " + spec).c_str());
    }
    char* rest = nullptr;
    const unsigned long asn = std::strtoul(spec.c_str() + pos, &rest, 10);
    if (rest == spec.c_str() + pos || asn == 0 || asn > 0xFFFFFFFFul) {
      usage_error(("bad ASN in --owned " + spec).c_str());
    }
    owned.origins.push_back(static_cast<artemis::bgp::Asn>(asn));
    pos = static_cast<std::size_t>(rest - spec.c_str());
    if (pos < spec.size()) {
      if (spec[pos] != ',') usage_error(("bad ASN list in --owned " + spec).c_str());
      ++pos;
    }
  }
  if (owned.origins.empty()) {
    usage_error(("--owned " + spec + " lists no origins").c_str());
  }
  return owned;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace artemis;

  std::string journal_dir;
  std::string config_path;
  std::vector<OwnedFlag> owned_flags;
  std::size_t shards = 1;
  bool threaded = false;
  bool pin = false;
  bool prune = true;
  std::int64_t since_us = std::numeric_limits<std::int64_t>::min();
  std::int64_t until_us = std::numeric_limits<std::int64_t>::max();
  pipeline::WaitPolicy wait_policy = pipeline::WaitPolicy::kBusyPoll;
  bool wait_policy_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--journal") {
      journal_dir = flag_value("--journal");
    } else if (arg == "--owned") {
      owned_flags.push_back(parse_owned(flag_value("--owned")));
    } else if (arg == "--config") {
      config_path = flag_value("--config");
    } else if (arg == "--since-us") {
      since_us = parse_micros(flag_value("--since-us"), "--since-us");
    } else if (arg == "--until-us") {
      until_us = parse_micros(flag_value("--until-us"), "--until-us");
    } else if (arg == "--no-prune") {
      prune = false;
    } else if (arg == "--shards") {
      const char* text = flag_value("--shards");
      char* rest = nullptr;
      const long n = std::strtol(text, &rest, 10);
      if (rest == text || *rest != '\0' || n < 1 || n > 1024) {
        usage_error("--shards must be an integer in [1, 1024]");
      }
      shards = static_cast<std::size_t>(n);
    } else if (arg == "--threaded") {
      threaded = true;
    } else if (arg == "--wait-policy") {
      if (!pipeline::parse_wait_policy(flag_value("--wait-policy"), wait_policy)) {
        usage_error("--wait-policy must be busy_poll or futex");
      }
      wait_policy_given = true;
    } else if (arg == "--pin") {
      pin = true;
    } else {
      usage_error(("unknown argument " + std::string(arg)).c_str());
    }
  }
  if (journal_dir.empty()) usage_error("--journal DIR is required");
  if (owned_flags.empty() && config_path.empty()) {
    usage_error("at least one --owned PREFIX=ASN or a --config FILE is required");
  }
  if ((wait_policy_given || pin) && !threaded) {
    usage_error("--wait-policy/--pin require --threaded");
  }

  try {
    core::Config config;
    if (!config_path.empty()) {
      std::ifstream in(config_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open --config " + config_path);
      std::ostringstream text;
      text << in.rdbuf();
      config = core::Config::from_json_text(text.str());
    }
    for (const auto& owned : owned_flags) config.add_owned(owned.prefix, owned.origins);
    if (config.owns_nothing()) {
      usage_error("the ownership config lists no prefixes");
    }

    pipeline::ShardedDetectorOptions options;
    options.shards = shards;
    options.threaded = threaded;
    options.wait_policy = wait_policy;
    options.pin_workers = pin;
    pipeline::ShardedDetector detector(config, options);
    feeds::MonitorHub hub;
    detector.attach(hub);

    journal::JournalReader reader(journal_dir);
    journal::ReplayOptions replay_options;
    replay_options.filter.min_event_us = since_us;
    replay_options.filter.max_event_us = until_us;
    if (prune) {
      // The ownership projection: segments whose footer proves no owned
      // overlap are skipped without decoding. Alert-preserving (see the
      // header comment), so it is on unless --no-prune.
      for (const auto& owned : detector.ownership().owned()) {
        replay_options.filter.any_prefixes.push_back(owned.prefix);
      }
    }
    const bool filtered = !replay_options.filter.is_trivial();
    journal::ReplayFeed feed(reader, replay_options);
    const std::uint64_t replayed = feed.replay_all(hub);
    if (reader.truncated_tail()) {
      std::fprintf(stderr, "warning: journal has a truncated tail record\n");
    }
    if (filtered) {
      std::fprintf(stderr,
                   "index: scanned %llu/%zu segment(s) (%llu skipped via index); "
                   "%llu record(s) decoded\n",
                   static_cast<unsigned long long>(reader.segments_scanned()),
                   reader.segment_count(),
                   static_cast<unsigned long long>(reader.segments_skipped()),
                   static_cast<unsigned long long>(reader.records_scanned()));
    }

    // Threaded: barrier before reading merged state.
    detector.flush();
    const auto alerts = detector.merged_alerts();
    for (const auto& alert : alerts) {
      std::printf("%s\n", alert.to_string().c_str());
    }
    std::fprintf(stderr, "replayed %llu observations, %zu merged alerts (%zu shards)\n",
                 static_cast<unsigned long long>(replayed), alerts.size(), shards);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
