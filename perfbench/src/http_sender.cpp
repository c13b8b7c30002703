#include "http_sender.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {
constexpr std::int64_t kTickNs = 1'000'000;
}  // namespace

LiveSender::LiveSender(const gen::Stream& stream, std::int64_t reload_at_us)
    : stream_(stream), reload_at_us_(reload_at_us) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("sender: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 1) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("sender: cannot listen on loopback");
  }
  port_ = ntohs(addr.sin_port);
}

LiveSender::~LiveSender() {
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void LiveSender::start() { thread_ = std::thread([this] { serve(); }); }

bool LiveSender::join() {
  if (thread_.joinable()) thread_.join();
  return ok_;
}

void LiveSender::serve() {
  // Accept with a timeout so a receiver that never connects cannot hang
  // the run.
  pollfd pfd{listen_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, 30'000) != 1) return;
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ::close(fd);
      return;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::int64_t t0 = now_ns();
  t0_ns_.store(t0, std::memory_order_release);

  const auto send_all = [&](const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
      if (n <= 0) return false;
      data += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  };
  const std::string header = "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
                             "Content-Length: " + std::to_string(stream_.mrt.size()) +
                             "\r\nConnection: close\r\n\r\n";
  bool ok = send_all(reinterpret_cast<const std::uint8_t*>(header.data()), header.size());

  std::int64_t blocked_ns = 0;
  std::int64_t late_ns = 0;
  const std::size_t records = stream_.record_end.size();
  std::size_t next = 0;
  std::int64_t next_tick = t0;
  while (ok && next < records) {
    // Wake when the next record is due, but at most once per tick: the
    // send count (and so the receiver's wakeups) then follows the
    // schedule, not the scheduler.
    const std::int64_t due = t0 + stream_.due_us[next] * 1000;
    const std::int64_t wake = std::max(due, next_tick);
    if (now_ns() < wake) {
      const timespec ts{static_cast<time_t>(wake / 1'000'000'000),
                        static_cast<long>(wake % 1'000'000'000)};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    }
    next_tick = wake + kTickNs;
    const std::int64_t now = now_ns();
    if (!reload_.load(std::memory_order_relaxed) && stream_.due_us[next] >= reload_at_us_) {
      reload_.store(true, std::memory_order_release);
    }
    std::size_t last = next;
    while (last < records && t0 + stream_.due_us[last] * 1000 <= now &&
           (stream_.due_us[last] < reload_at_us_) == (stream_.due_us[next] < reload_at_us_)) {
      ++last;
    }
    late_ns = std::max(late_ns, now - due);
    const std::size_t begin = next == 0 ? 0 : stream_.record_end[next - 1];
    const std::size_t end = stream_.record_end[last - 1];
    const std::int64_t send_start = now_ns();
    ok = send_all(stream_.mrt.data() + begin, end - begin);
    blocked_ns += now_ns() - send_start;
    next = last;
  }
  ::shutdown(fd, SHUT_WR);
  // Drain until the receiver closes, so it sees a clean end of body.
  pollfd cfd{fd, POLLIN, 0};
  while (::poll(&cfd, 1, 5'000) == 1 && ::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  late_ms_max_ = static_cast<double>(late_ns) * 1e-6;
  blocked_ms_ = static_cast<double>(blocked_ns) * 1e-6;
  ok_ = ok;
}

}  // namespace perfbench
