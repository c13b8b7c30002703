// Open-loop loopback HTTP sender for the live_feed workload.
//
// Serves one GET on 127.0.0.1 with a known Content-Length, then streams
// the raw MRT records on a fixed schedule: record i is due at
// t0 + due_us[i], whatever the receiver is doing (t0 = the moment the
// request arrived, stamped here at the sender). The sender wakes at most
// once per millisecond and sends every record already due in one send();
// it records how late it ran
// against the schedule and how long send() blocked because the ingest
// side was not draining the socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "gen.hpp"

namespace perfbench {

class LiveSender {
 public:
  /// Binds and listens on an ephemeral loopback port; `reload_at_us`
  /// raises reload_requested() before the first record due at or after it.
  LiveSender(const gen::Stream& stream, std::int64_t reload_at_us);
  ~LiveSender();
  LiveSender(const LiveSender&) = delete;
  LiveSender& operator=(const LiveSender&) = delete;

  int port() const { return port_; }
  void start();
  /// Waits for the sender thread; true when every byte went out.
  bool join();

  /// Schedule origin (steady-clock ns); 0 until the request arrived.
  std::int64_t t0_ns() const { return t0_ns_.load(std::memory_order_acquire); }
  bool reload_requested() const { return reload_.load(std::memory_order_acquire); }

  double late_ms_max() const { return late_ms_max_; }
  double send_blocked_ms() const { return blocked_ms_; }

 private:
  void serve();

  const gen::Stream& stream_;
  std::int64_t reload_at_us_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<std::int64_t> t0_ns_{0};
  std::atomic<bool> reload_{false};
  bool ok_ = false;
  double late_ms_max_ = 0;
  double blocked_ms_ = 0;
  std::thread thread_;  // declared last: starts after every member it uses
};

}  // namespace perfbench
