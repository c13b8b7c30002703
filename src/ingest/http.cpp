#include "ingest/http.hpp"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <vector>

namespace artemis::ingest {
namespace {

std::string ascii_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A connected socket with close-on-scope-exit.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  void adopt(int fd) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

/// Waits for readability/writability with a deadline. Returns false on
/// timeout or poll error.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

bool connect_with_timeout(const Url& url, const HttpGetOptions& options,
                          Socket& sock, std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(url.host.c_str(), url.port.c_str(), &hints, &res);
  if (rc != 0) {
    error = "resolve " + url.host + ": " + ::gai_strerror(rc);
    return false;
  }
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                            ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      sock.adopt(fd);
      ::freeaddrinfo(res);
      return true;
    }
    if (errno == EINPROGRESS &&
        wait_fd(fd, POLLOUT, options.connect_timeout_ms)) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 &&
          soerr == 0) {
        sock.adopt(fd);
        ::freeaddrinfo(res);
        return true;
      }
      errno = soerr;
    }
    error = "connect " + url.host + ":" + url.port + ": " +
            (errno != 0 ? std::strerror(errno) : "timed out");
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (error.empty()) error = "connect " + url.host + ": no usable address";
  return false;
}

bool send_all(int fd, std::string_view data, int timeout_ms, std::string& error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_fd(fd, POLLOUT, timeout_ms)) {
        error = "send: stalled";
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

/// Read outcomes below the HTTP framing layer.
enum class ReadStatus { kData, kEof, kStall, kError };

/// `idle`, when set, runs each time the socket has nothing pending,
/// before the wait.
ReadStatus read_some(int fd, std::span<std::uint8_t> buf, int timeout_ms,
                     std::size_t& got, std::string& error,
                     const HttpIdleFn* idle = nullptr) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      got = static_cast<std::size_t>(n);
      return ReadStatus::kData;
    }
    if (n == 0) return ReadStatus::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (idle != nullptr && *idle) (*idle)();
      if (!wait_fd(fd, POLLIN, timeout_ms)) {
        error = "recv: stalled";
        return ReadStatus::kStall;
      }
      continue;
    }
    if (errno == EINTR) continue;
    error = std::string("recv: ") + std::strerror(errno);
    return ReadStatus::kError;
  }
}

struct ResponseHead {
  int status = 0;
  std::int64_t content_length = -1;
  bool chunked = false;
  /// Start byte from Content-Range ("bytes <start>-<end>/<total>"), -1 if
  /// the header is absent or unparsable.
  std::int64_t content_range_start = -1;
};

bool parse_head(std::string_view head, ResponseHead& out, std::string& error) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  if (!status_line.starts_with("HTTP/1.")) {
    error = "malformed status line";
    return false;
  }
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    error = "malformed status line";
    return false;
  }
  const std::string_view code = status_line.substr(sp + 1, 3);
  const auto [p, ec] = std::from_chars(code.data(), code.data() + 3, out.status);
  if (ec != std::errc{} || p != code.data() + 3) {
    error = "malformed status code";
    return false;
  }

  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string name = ascii_lower(trim(line.substr(0, colon)));
    const std::string_view value = trim(line.substr(colon + 1));
    if (name == "content-length") {
      std::int64_t len = 0;
      const auto [vp, vec] =
          std::from_chars(value.data(), value.data() + value.size(), len);
      if (vec != std::errc{} || vp != value.data() + value.size() || len < 0) {
        error = "malformed Content-Length";
        return false;
      }
      out.content_length = len;
    } else if (name == "transfer-encoding") {
      out.chunked = ascii_lower(value).find("chunked") != std::string::npos;
    } else if (name == "content-range") {
      // "bytes <start>-<end>/<total>" — only the start matters for resume
      // validation.
      const std::string v = ascii_lower(value);
      constexpr std::string_view kBytes = "bytes ";
      if (v.starts_with(kBytes)) {
        const char* b = v.data() + kBytes.size();
        const char* e = v.data() + v.size();
        std::int64_t start = 0;
        const auto [sp2, sec] = std::from_chars(b, e, start);
        if (sec == std::errc{} && sp2 != b) out.content_range_start = start;
      }
    }
  }
  return true;
}

/// De-chunks a Transfer-Encoding: chunked body incrementally.
class ChunkedBody {
 public:
  /// Feeds raw socket bytes; forwards payload to `body`. Returns false on
  /// a framing error (error set).
  bool feed(std::span<const std::uint8_t> in, const HttpBodySink& body,
            std::uint64_t& delivered, std::string& error) {
    std::size_t i = 0;
    while (i < in.size()) {
      switch (state_) {
        case State::kSize: {
          const char c = static_cast<char>(in[i]);
          if (c == '\r') {
            ++i;
            break;
          }
          if (c == '\n') {
            ++i;
            if (!size_line_.empty()) {
              std::size_t size = 0;
              const std::size_t semi = size_line_.find(';');
              const std::string_view digits =
                  std::string_view(size_line_).substr(0, semi);
              const auto [p, ec] = std::from_chars(
                  digits.data(), digits.data() + digits.size(), size, 16);
              if (ec != std::errc{} || p != digits.data() + digits.size()) {
                error = "malformed chunk size";
                return false;
              }
              size_line_.clear();
              remaining_ = size;
              state_ = size == 0 ? State::kTrailer : State::kData;
            }
            break;
          }
          if (size_line_.size() >= kMaxChunkSizeLine) {
            error = "chunk-size line exceeds " + std::to_string(kMaxChunkSizeLine) +
                    " bytes";
            return false;
          }
          size_line_.push_back(c);
          ++i;
          break;
        }
        case State::kData: {
          const std::size_t take = std::min(in.size() - i, remaining_);
          if (take > 0) {
            body(in.subspan(i, take));
            delivered += take;
            remaining_ -= take;
            i += take;
          }
          if (remaining_ == 0) state_ = State::kDataEnd;
          break;
        }
        case State::kDataEnd: {
          // Consume the CRLF after the chunk payload.
          const char c = static_cast<char>(in[i]);
          ++i;
          if (c == '\n') state_ = State::kSize;
          break;
        }
        case State::kTrailer: {
          // Swallow trailers until the blank line.
          const char c = static_cast<char>(in[i]);
          ++i;
          if (c == '\n') {
            if (trailer_line_empty_) {
              done_ = true;
              return true;
            }
            trailer_line_empty_ = true;
          } else if (c != '\r') {
            trailer_line_empty_ = false;
          }
          break;
        }
      }
      if (done_) return true;
    }
    return true;
  }

  bool done() const { return done_; }

 private:
  enum class State { kSize, kData, kDataEnd, kTrailer };
  State state_ = State::kSize;
  std::string size_line_;
  std::size_t remaining_ = 0;
  bool trailer_line_empty_ = true;
  bool done_ = false;
};

}  // namespace

std::optional<Url> parse_url(std::string_view text) {
  constexpr std::string_view kSep = "://";
  const std::size_t sep = text.find(kSep);
  if (sep == std::string_view::npos || sep == 0) return std::nullopt;
  Url url;
  url.scheme = ascii_lower(text.substr(0, sep));
  std::string_view rest = text.substr(sep + kSep.size());
  const std::size_t slash = rest.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  url.target = slash == std::string_view::npos ? "/" : std::string(rest.substr(slash));
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos &&
      authority.find(':') == colon) {  // exclude bare IPv6 literals
    url.host = std::string(authority.substr(0, colon));
    url.port = std::string(authority.substr(colon + 1));
    if (url.port.empty() ||
        !std::all_of(url.port.begin(), url.port.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c));
        })) {
      return std::nullopt;
    }
  } else {
    url.host = std::string(authority);
    url.port = url.scheme == "https" ? "443" : "80";
  }
  if (url.host.empty()) return std::nullopt;
  return url;
}

std::string_view to_string(FetchOutcome outcome) {
  switch (outcome) {
    case FetchOutcome::kOk: return "ok";
    case FetchOutcome::kTransient: return "transient";
    case FetchOutcome::kPermanent: return "permanent";
  }
  return "transient";
}

FetchOutcome classify_status(int status) {
  if (status >= 200 && status < 300) return FetchOutcome::kOk;
  if (status == 416) return FetchOutcome::kOk;  // nothing past the offset
  if (status == 408 || status == 429) return FetchOutcome::kTransient;
  if (status >= 500) return FetchOutcome::kTransient;
  return FetchOutcome::kPermanent;  // 3xx/4xx: redirects unsupported, 404s final
}

HttpResult http_get(const Url& url, const HttpGetOptions& options,
                    const HttpBodySink& body, const HttpIdleFn& idle) {
  HttpResult result;
  if (url.scheme != "http") {
    result.outcome = FetchOutcome::kPermanent;
    result.error = url.scheme == "https"
                       ? "https is not supported in this build; use an http:// "
                         "mirror (see README \"Running as a service\")"
                       : "unsupported URL scheme \"" + url.scheme + "\"";
    return result;
  }

  Socket sock;
  if (!connect_with_timeout(url, options, sock, result.error)) {
    result.outcome = FetchOutcome::kTransient;
    return result;
  }

  std::string request = "GET " + url.target + " HTTP/1.1\r\nHost: " + url.host +
                        "\r\nUser-Agent: artemis-ingest/1\r\n";
  if (options.range_start > 0) {
    request += "Range: bytes=" + std::to_string(options.range_start) + "-\r\n";
  }
  request += "Connection: close\r\n\r\n";
  if (!send_all(sock.fd(), request, options.io_timeout_ms, result.error)) {
    result.outcome = FetchOutcome::kTransient;
    return result;
  }

  // --- read + split head from body ---------------------------------------
  std::vector<std::uint8_t> buf(64u << 10);
  std::string head;
  std::size_t body_start = 0;  // offset into buf of the first body byte
  std::size_t body_len = 0;
  bool have_head = false;
  while (!have_head) {
    std::size_t got = 0;
    const ReadStatus rs =
        read_some(sock.fd(), buf, options.io_timeout_ms, got, result.error);
    if (rs != ReadStatus::kData) {
      if (rs == ReadStatus::kEof) result.error = "connection closed before response";
      result.outcome = FetchOutcome::kTransient;
      return result;
    }
    head.append(reinterpret_cast<const char*>(buf.data()), got);
    const std::size_t end = head.find("\r\n\r\n");
    if (end != std::string_view::npos) {
      // Bytes past the blank line in THIS read belong to the body.
      const std::size_t head_total = end + 4;
      const std::size_t prior = head.size() - got;
      body_start = head_total > prior ? head_total - prior : 0;
      body_len = got - body_start;
      head.resize(head_total);
      have_head = true;
    } else if (head.size() > (1u << 20)) {
      result.error = "response header exceeds 1 MiB";
      result.outcome = FetchOutcome::kTransient;
      return result;
    }
  }

  ResponseHead parsed;
  if (!parse_head(head, parsed, result.error)) {
    result.outcome = FetchOutcome::kTransient;
    return result;
  }
  result.status = parsed.status;
  result.content_length = parsed.content_length;
  result.outcome = classify_status(parsed.status);
  if (parsed.status == 416) return result;  // no body we care about
  if (result.outcome != FetchOutcome::kOk) {
    // Error statuses: the body (if any) is diagnostics, not archive bytes.
    result.error = "HTTP status " + std::to_string(parsed.status);
    return result;
  }
  if (options.range_start > 0 && parsed.status == 206) {
    if (parsed.content_range_start !=
        static_cast<std::int64_t>(options.range_start)) {
      result.error = "Content-Range start " +
                     std::to_string(parsed.content_range_start) +
                     " does not match requested offset " +
                     std::to_string(options.range_start);
      result.outcome = FetchOutcome::kTransient;
      return result;
    }
    result.ranged = true;
  }

  // --- body --------------------------------------------------------------
  // A 200 despite our Range request restarts the entity from byte 0:
  // swallow the prefix here, where the status is known BEFORE the first
  // body byte, so the caller's sink sees a seamless byte stream either way.
  std::uint64_t discard = (options.range_start > 0 && parsed.status == 200)
                              ? options.range_start
                              : 0;
  const HttpBodySink deduped = [&](std::span<const std::uint8_t> data) {
    if (discard > 0) {
      const std::uint64_t skip = std::min<std::uint64_t>(discard, data.size());
      discard -= skip;
      result.discarded_bytes += skip;
      data = data.subspan(skip);
    }
    if (data.empty()) return;
    result.body_bytes += data.size();
    body(data);
  };

  ChunkedBody chunked;
  std::uint64_t raw_body = 0;         // identity-framing byte count
  std::uint64_t chunk_payload = 0;    // de-chunked payload byte count
  const auto deliver = [&](std::span<const std::uint8_t> data) -> bool {
    if (data.empty()) return true;
    if (parsed.chunked) {
      return chunked.feed(data, deduped, chunk_payload, result.error);
    }
    std::span<const std::uint8_t> take = data;
    if (parsed.content_length >= 0) {
      const std::uint64_t want =
          static_cast<std::uint64_t>(parsed.content_length) - raw_body;
      if (take.size() > want) take = take.subspan(0, want);
    }
    raw_body += take.size();
    if (!take.empty()) deduped(take);
    return true;
  };

  if (!deliver({buf.data() + body_start, body_len})) {
    result.outcome = FetchOutcome::kTransient;
    return result;
  }
  for (;;) {
    if (parsed.chunked && chunked.done()) break;
    if (!parsed.chunked && parsed.content_length >= 0 &&
        raw_body >= static_cast<std::uint64_t>(parsed.content_length)) {
      break;
    }
    std::size_t got = 0;
    const ReadStatus rs =
        read_some(sock.fd(), buf, options.io_timeout_ms, got, result.error, &idle);
    if (rs == ReadStatus::kEof) {
      if (parsed.chunked && !chunked.done()) {
        result.error = "connection closed mid-chunked-body";
        result.outcome = FetchOutcome::kTransient;
      } else if (parsed.content_length >= 0 &&
                 raw_body < static_cast<std::uint64_t>(parsed.content_length)) {
        result.error = "short body: got " + std::to_string(raw_body) + " of " +
                       std::to_string(parsed.content_length) + " bytes";
        result.outcome = FetchOutcome::kTransient;
      }
      // No Content-Length, not chunked: EOF IS the delimiter — success.
      return result;
    }
    if (rs != ReadStatus::kData) {
      result.outcome = FetchOutcome::kTransient;
      return result;
    }
    if (!deliver({buf.data(), got})) {
      result.outcome = FetchOutcome::kTransient;
      return result;
    }
  }
  return result;
}

}  // namespace artemis::ingest
