// Minimal HTTP/1.1 GET client for the ingest supervisor.
//
// Archive mirrors (RouteViews, RIPE RIS, a local rsync'd copy behind any
// static file server) need nothing more than GET + Range, and the
// supervisor needs *classified* failures more than it needs protocol
// breadth: a refused connection and a 503 should back off and retry, a
// 404 should fail the source fast, and a connection cut mid-body should
// resume from the received byte count. So this client is deliberately
// small — blocking sockets with poll()-based timeouts, identity and
// chunked transfer framing, `Connection: close` (one request per
// connection; archive fetches are long transfers, not RPC chatter) — and
// classifies every outcome instead of throwing: network faults are the
// supervisor's steady state, not exceptional. A chunk-size line longer
// than kMaxChunkSizeLine bytes fails the attempt (kTransient), so a peer
// cannot grow ingest memory by never ending one.
//
// TLS is intentionally out: https:// URLs classify as permanent errors
// with a pointer at using an http:// mirror (see README "Running as a
// service"). The URL/response layer is transport-agnostic, so a TLS
// stream can slot in behind the same interface later.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace artemis::ingest {

struct Url {
  std::string scheme;  ///< "http" (anything else is rejected at fetch time)
  std::string host;
  std::string port;    ///< defaulted from the scheme when absent
  std::string target;  ///< path + query, always starting with '/'
};

/// Parses "http://host[:port]/path?query". Returns nullopt on anything
/// that does not look like an absolute URL with a host.
std::optional<Url> parse_url(std::string_view text);

/// How a fetch attempt ended, from the retry policy's point of view.
enum class FetchOutcome : std::uint8_t {
  kOk,         ///< response fully consumed (incl. 416 "nothing past offset")
  kTransient,  ///< worth a backoff + retry: 5xx/408/429, resets, timeouts,
               ///< short bodies, malformed frames
  kPermanent,  ///< retrying cannot help: 404-class statuses, bad URL, TLS
};

std::string_view to_string(FetchOutcome outcome);

/// Longest chunk-size line (hex size plus extensions) a chunked body may
/// send before its line feed.
inline constexpr std::size_t kMaxChunkSizeLine = 1024;

struct HttpResult {
  FetchOutcome outcome = FetchOutcome::kTransient;
  int status = 0;            ///< HTTP status, 0 when none was received
  std::string error;         ///< human-readable cause when not kOk
  std::uint64_t body_bytes = 0;  ///< NEW entity bytes delivered to the sink
  /// Duplicate prefix bytes swallowed when a server ignored our Range
  /// header and replied 200 from entity byte 0: http_get discards the
  /// first range_start raw body bytes itself, so the sink only ever sees
  /// entity bytes >= range_start regardless of server behavior.
  std::uint64_t discarded_bytes = 0;
  std::int64_t content_length = -1;  ///< from the response, -1 unknown
  /// True when the server honored our Range header (206 + matching
  /// Content-Range).
  bool ranged = false;
};

struct HttpGetOptions {
  /// Request "Range: bytes=<range_start>-" when > 0 (resume).
  std::uint64_t range_start = 0;
  int connect_timeout_ms = 5000;
  /// Per-poll receive timeout: a server that sends nothing for this long
  /// counts as stalled (kTransient).
  int io_timeout_ms = 5000;
};

/// Raw body payload chunks, in order. Never invoked after a tear's last
/// received byte; HttpResult::body_bytes totals exactly what was passed.
using HttpBodySink = std::function<void(std::span<const std::uint8_t>)>;

/// Called when the socket has no body bytes pending, just before the
/// body reader blocks in poll(): everything received so far has reached
/// the sink. Live ingest uses it to emit a partial batch instead of
/// waiting for a full one.
using HttpIdleFn = std::function<void()>;

/// One blocking GET. Never throws on network/protocol faults — every
/// outcome is classified in the result (exceptions escape only for
/// programming errors, e.g. a null sink). `idle` may be empty.
HttpResult http_get(const Url& url, const HttpGetOptions& options,
                    const HttpBodySink& body, const HttpIdleFn& idle = {});

/// Classifies a status code the way http_get does (exposed for tests and
/// for the supervisor's stats rendering).
FetchOutcome classify_status(int status);

}  // namespace artemis::ingest
