#include "ingest/fault_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace artemis::ingest_test {
namespace {

void msleep(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool send_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // client went away (timed out, was killed) — fine
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_str(int fd, const std::string& s) {
  return send_all(fd, s.data(), s.size());
}

/// Makes close(2) send RST instead of FIN: the "connection reset by
/// peer" fault, as distinct from a clean early EOF.
void arm_reset(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace

FaultServer::FaultServer() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("FaultServer: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("FaultServer: bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
}

FaultServer::~FaultServer() {
  stop_.store(true);
  // The accept loop polls with a timeout, so it notices stop_ promptly.
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void FaultServer::add_file(const std::string& path,
                           std::vector<std::uint8_t> content) {
  std::lock_guard lock(mutex_);
  files_[path] = std::move(content);
}

void FaultServer::push_fault(const Fault& fault) {
  std::lock_guard lock(mutex_);
  faults_.push_back(fault);
}

void FaultServer::set_dribble(std::size_t bytes, int delay_ms) {
  std::lock_guard lock(mutex_);
  dribble_bytes_ = bytes;
  dribble_delay_ms_ = delay_ms;
}

std::string FaultServer::url_for(const std::string& path) const {
  return "http://127.0.0.1:" + std::to_string(port_) + path;
}

void FaultServer::serve_loop() {
  while (!stop_.load()) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, 50);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
  }
}

void FaultServer::handle_connection(int fd) {
  // Requests are header-only; read until the blank line (with a hard cap
  // so a confused client cannot wedge the test server).
  std::string request;
  char buf[4096];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < (64u << 10)) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (::poll(&p, 1, 2000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (request.find("\r\n\r\n") == std::string::npos) {
    ::close(fd);
    return;
  }
  requests_.fetch_add(1);

  // "GET /path HTTP/1.1"
  std::string path;
  {
    const std::size_t sp1 = request.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      path = request.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  // "Range: bytes=N-" (the only shape the client sends).
  std::uint64_t range_start = 0;
  bool has_range = false;
  {
    const std::size_t pos = request.find("Range: bytes=");
    if (pos != std::string::npos) {
      has_range = true;
      range_requests_.fetch_add(1);
      range_start = std::strtoull(
          request.c_str() + pos + std::strlen("Range: bytes="), nullptr, 10);
    }
  }

  Fault fault;
  std::vector<std::uint8_t> content;
  bool found = false;
  std::size_t dribble_bytes = 0;
  int dribble_delay_ms = 0;
  {
    std::lock_guard lock(mutex_);
    if (!faults_.empty()) {
      fault = faults_.front();
      faults_.erase(faults_.begin());
    }
    const auto it = files_.find(path);
    if (it != files_.end()) {
      found = true;
      content = it->second;  // copy: the lock drops before slow sends
    }
    dribble_bytes = dribble_bytes_;
    dribble_delay_ms = dribble_delay_ms_;
  }

  if (fault.kind == Fault::Kind::kStatus) {
    send_str(fd, "HTTP/1.1 " + std::to_string(fault.status) +
                     " Scripted\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    ::close(fd);
    return;
  }
  if (!found) {
    send_str(fd,
             "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    ::close(fd);
    return;
  }

  // Resolve the Range against the entity (unless this request's fault is
  // to ignore it).
  const bool honor_range = has_range && fault.kind != Fault::Kind::kIgnoreRange;
  if (honor_range && range_start >= content.size()) {
    send_str(fd, "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Range: bytes */" +
                     std::to_string(content.size()) +
                     "\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    ::close(fd);
    return;
  }
  const std::uint64_t body_start = honor_range ? range_start : 0;
  const std::uint64_t body_size = content.size() - body_start;

  std::int64_t advertised = static_cast<std::int64_t>(body_size);
  if (fault.kind == Fault::Kind::kWrongContentLength) {
    advertised = std::max<std::int64_t>(0, advertised + fault.length_delta);
  }
  // Chunked kinds send `wire` (the framed body) instead of the entity.
  const bool chunked = fault.kind == Fault::Kind::kChunked ||
                       fault.kind == Fault::Kind::kChunkSizeFlood;
  std::string wire;
  if (fault.kind == Fault::Kind::kChunked) {
    const std::uint64_t step =
        fault.bytes > 0 ? fault.bytes : std::max<std::uint64_t>(body_size, 1);
    for (std::uint64_t at = 0; at < body_size; at += step) {
      const std::uint64_t n = std::min(step, body_size - at);
      char line[48];
      // Every other size line carries an extension the client must skip.
      std::snprintf(line, sizeof(line), "%llx%s\r\n", static_cast<unsigned long long>(n),
                    (at / step) % 2 == 1 ? ";ext=1" : "");
      wire += line;
      wire.append(reinterpret_cast<const char*>(content.data() + body_start + at), n);
      wire += "\r\n";
    }
    wire += "0\r\nX-Trailer: 1\r\n\r\n";
  } else if (fault.kind == Fault::Kind::kChunkSizeFlood) {
    wire = "1;" + std::string(fault.bytes, 'a');
  }
  std::string head;
  if (honor_range) {
    head = "HTTP/1.1 206 Partial Content\r\nContent-Range: bytes " +
           std::to_string(body_start) + "-" + std::to_string(content.size() - 1) +
           "/" + std::to_string(content.size()) + "\r\n";
  } else {
    head = "HTTP/1.1 200 OK\r\n";
  }
  head += chunked ? std::string("Transfer-Encoding: chunked")
                  : "Content-Length: " + std::to_string(advertised);
  head += "\r\nConnection: close\r\n\r\n";
  if (!send_str(fd, head)) {
    ::close(fd);
    return;
  }

  // Body, possibly cut short by the fault and/or paced by the dribble.
  std::uint64_t limit = body_size;
  if (fault.kind == Fault::Kind::kCloseAfterBytes ||
      fault.kind == Fault::Kind::kResetAfterBytes ||
      fault.kind == Fault::Kind::kStallThenClose) {
    limit = std::min<std::uint64_t>(limit, fault.bytes);
  } else if (fault.kind == Fault::Kind::kWrongContentLength &&
             fault.length_delta < 0) {
    // Advertising LESS than the truth: send only the advertisement, so
    // the client sees a complete (but prefix-only) body — the torn-
    // archive-at-the-mirror case.
    limit = static_cast<std::uint64_t>(advertised);
  }
  const std::uint8_t* payload = content.data() + body_start;
  if (chunked) {
    payload = reinterpret_cast<const std::uint8_t*>(wire.data());
    limit = wire.size();
  }
  std::uint64_t sent = 0;
  while (sent < limit) {
    std::size_t step = static_cast<std::size_t>(limit - sent);
    if (dribble_bytes > 0) step = std::min(step, dribble_bytes);
    if (!send_all(fd, payload + sent, step)) break;
    sent += step;
    if (dribble_bytes > 0 && sent < limit) msleep(dribble_delay_ms);
  }

  if (fault.kind == Fault::Kind::kResetAfterBytes) arm_reset(fd);
  if (fault.kind == Fault::Kind::kStallThenClose) msleep(fault.stall_ms);
  ::close(fd);
}

}  // namespace artemis::ingest_test
