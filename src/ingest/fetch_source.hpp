// FetchSource: one archive URL's retry state machine.
//
// Wraps the HTTP client with the policy the supervisor needs per source:
// a retry budget, capped exponential backoff with deterministic jitter,
// and byte-offset resume. Every *entity* byte reaches the sink exactly
// once, in order, across any number of transient failures — a cut
// connection resumes with a Range request at the delivered byte count,
// and a server that ignores Range (replies 200 from byte 0) has its
// already-seen prefix discarded before the sink sees anything. That
// exactly-once contract is what lets a live decompressor sit directly
// behind the sink: its stream state survives retries because the byte
// stream it observes is seamless.
//
// Error classification drives the machine: kPermanent (404, bad scheme)
// fails the source on the spot with no retries; kTransient (5xx, resets,
// stalls, short bodies) spends the budget. An attempt that delivered new
// bytes refunds the consecutive-failure count — progress proves the
// source is alive, so only *stalled* sources exhaust the budget.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ingest/http.hpp"
#include "util/rng.hpp"

namespace artemis::ingest {

struct FetchPolicy {
  /// Consecutive no-progress transient failures before the source fails.
  int max_retries = 8;
  std::int64_t backoff_ms = 250;       ///< first retry delay (doubles per retry)
  std::int64_t max_backoff_ms = 30'000;  ///< backoff growth cap
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 5000;
};

/// Deterministic capped-exponential backoff with jitter: base 2^retry
/// growth capped at max_backoff_ms, then uniformly jittered to
/// [delay/2, delay] so a fleet of sources seeded differently desynchronizes.
/// Pure in (policy, retry, rng-state): tests replay it bit-for-bit.
std::int64_t backoff_delay_ms(const FetchPolicy& policy, int retry, Rng& rng);

enum class SourceState : std::uint8_t {
  kPending,   ///< not started
  kFetching,  ///< attempt in flight
  kBackoff,   ///< waiting out a retry delay
  kDone,      ///< fully delivered
  kFailed,    ///< permanent error or retry budget exhausted
};

std::string_view to_string(SourceState state);

/// The per-source ledger the stats surface renders. bytes_fetched counts
/// deduplicated entity bytes (what the sink saw); bytes_discarded counts
/// re-received prefix bytes a Range-ignoring server forced us to drop.
struct SourceStats {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;          ///< attempts after the first, incl. refunded
  std::uint64_t bytes_fetched = 0;
  std::uint64_t bytes_discarded = 0;
  std::uint64_t resume_offset = 0;    ///< next attempt resumes from this byte
  std::int64_t last_backoff_ms = 0;   ///< delay before the most recent retry
  int last_status = 0;
  std::string last_error;
};

class FetchSource {
 public:
  /// Called instead of sleeping for real; tests pass a recorder, the
  /// supervisor passes an interruptible wait.
  using SleepFn = std::function<void(std::int64_t ms)>;

  /// `rng` should be forked per source (e.g. seed.fork(url)) so backoff
  /// jitter is independent across sources but reproducible per seed.
  FetchSource(std::string url, FetchPolicy policy, Rng rng);

  FetchSource(const FetchSource&) = delete;
  FetchSource& operator=(const FetchSource&) = delete;

  /// Runs attempts until the source is kDone or kFailed. `sink` receives
  /// each entity byte exactly once, in order; `idle` (may be empty) runs
  /// whenever an attempt's socket has nothing pending (see HttpIdleFn).
  /// Blocking (socket I/O + sleeps); never throws on network faults.
  FetchOutcome run(const HttpBodySink& sink, const SleepFn& sleep,
                   const HttpIdleFn& idle = {});

  const std::string& url() const { return url_; }
  SourceState state() const { return state_; }
  const SourceStats& stats() const { return stats_; }

 private:
  std::string url_;
  FetchPolicy policy_;
  Rng rng_;
  SourceState state_ = SourceState::kPending;
  SourceStats stats_;
};

}  // namespace artemis::ingest
