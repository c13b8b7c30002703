#include "ingest/fetch_source.hpp"

#include <algorithm>

namespace artemis::ingest {

std::int64_t backoff_delay_ms(const FetchPolicy& policy, int retry, Rng& rng) {
  // Cap the shift before shifting: retry counts beyond ~40 would overflow
  // long before the min() could save them.
  std::int64_t delay = policy.max_backoff_ms;
  if (retry < 40) {
    delay = std::min(policy.max_backoff_ms, policy.backoff_ms << retry);
  }
  if (delay <= 0) return 0;
  // Jitter into [delay/2, delay]: keeps the exponential shape (tests can
  // bound it) while decorrelating a fleet of retrying sources.
  const std::int64_t half = delay / 2;
  return half + static_cast<std::int64_t>(
                    rng.uniform_u64(static_cast<std::uint64_t>(delay - half) + 1));
}

std::string_view to_string(SourceState state) {
  switch (state) {
    case SourceState::kPending: return "pending";
    case SourceState::kFetching: return "fetching";
    case SourceState::kBackoff: return "backoff";
    case SourceState::kDone: return "done";
    case SourceState::kFailed: return "failed";
  }
  return "pending";
}

FetchSource::FetchSource(std::string url, FetchPolicy policy, Rng rng)
    : url_(std::move(url)), policy_(policy), rng_(rng) {}

FetchOutcome FetchSource::run(const HttpBodySink& sink, const SleepFn& sleep,
                              const HttpIdleFn& idle) {
  const std::optional<Url> url = parse_url(url_);
  if (!url) {
    state_ = SourceState::kFailed;
    stats_.last_error = "malformed URL: " + url_;
    return FetchOutcome::kPermanent;
  }

  int consecutive_failures = 0;
  for (;;) {
    state_ = SourceState::kFetching;
    ++stats_.attempts;
    if (stats_.attempts > 1) ++stats_.retries;

    HttpGetOptions options;
    options.range_start = stats_.resume_offset;
    options.connect_timeout_ms = policy_.connect_timeout_ms;
    options.io_timeout_ms = policy_.io_timeout_ms;

    // http_get de-duplicates the ignore-Range case itself (the sink only
    // ever sees entity bytes >= resume_offset), so the wrapper here just
    // keeps the ledger.
    const HttpBodySink wrapped = [&](std::span<const std::uint8_t> data) {
      stats_.bytes_fetched += data.size();
      stats_.resume_offset += data.size();
      sink(data);
    };
    const HttpResult result = http_get(*url, options, wrapped, idle);
    const std::uint64_t delivered_this_attempt = result.body_bytes;
    stats_.bytes_discarded += result.discarded_bytes;
    stats_.last_status = result.status;
    stats_.last_error = result.error;

    if (result.outcome == FetchOutcome::kOk) {
      state_ = SourceState::kDone;
      return FetchOutcome::kOk;
    }
    if (result.outcome == FetchOutcome::kPermanent) {
      state_ = SourceState::kFailed;
      return FetchOutcome::kPermanent;
    }

    // Transient: progress refunds the consecutive-failure count.
    consecutive_failures = delivered_this_attempt > 0 ? 1 : consecutive_failures + 1;
    if (consecutive_failures > policy_.max_retries) {
      state_ = SourceState::kFailed;
      if (stats_.last_error.empty()) stats_.last_error = "retry budget exhausted";
      return FetchOutcome::kTransient;
    }
    const std::int64_t delay =
        backoff_delay_ms(policy_, consecutive_failures - 1, rng_);
    stats_.last_backoff_ms = delay;
    state_ = SourceState::kBackoff;
    if (sleep) sleep(delay);
  }
}

}  // namespace artemis::ingest
