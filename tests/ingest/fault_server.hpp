// FaultServer: an in-process HTTP server that misbehaves on command.
//
// The ingest supervisor's whole job is surviving flaky mirrors, so its
// tests need a server whose faults are *scripted*, not environmental:
// push a schedule of faults and each incoming request consumes the next
// one — a 503, a connection cut (FIN or RST) after N body bytes, a stall
// longer than the client's read timeout, a lying Content-Length, a
// server that ignores Range and restarts from byte 0, a chunked body
// (well-formed, or with a chunk-size line that never ends). With an empty
// schedule it is a correct little static file server (Range/206/416
// included), which is what the kill-loop test uses, paced by a dribble
// knob so SIGKILLs land mid-transfer instead of between requests.
//
// Single-threaded accept loop, one connection at a time: the supervisor
// under test fetches sequentially, and serialized requests keep the
// fault schedule deterministic (request k always draws fault k).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace artemis::ingest_test {

struct Fault {
  enum class Kind : std::uint8_t {
    kNone,               ///< serve correctly
    kStatus,             ///< reply `status`, empty body
    kCloseAfterBytes,    ///< true headers, then FIN after `bytes` body bytes
    kResetAfterBytes,    ///< true headers, then RST after `bytes` body bytes
    kStallThenClose,     ///< `bytes` body bytes, sleep `stall_ms`, then FIN
    kWrongContentLength, ///< advertise body + `length_delta`, send the truth
    kIgnoreRange,        ///< 200 from entity byte 0 despite a Range header
    kChunked,            ///< Transfer-Encoding: chunked, `bytes` per chunk
                         ///< (0: one chunk), extensions and a trailer
    kChunkSizeFlood,     ///< chunked head, then a chunk-size line of
                         ///< `bytes` bytes that never ends, then FIN
  };
  Kind kind = Kind::kNone;
  int status = 503;
  std::uint64_t bytes = 0;
  int stall_ms = 0;
  std::int64_t length_delta = 0;
};

class FaultServer {
 public:
  /// Binds 127.0.0.1 on an ephemeral port and starts the accept thread.
  FaultServer();
  ~FaultServer();

  FaultServer(const FaultServer&) = delete;
  FaultServer& operator=(const FaultServer&) = delete;

  void add_file(const std::string& path, std::vector<std::uint8_t> content);

  /// Appends to the fault schedule; each request pops the front entry
  /// (an empty schedule serves correctly).
  void push_fault(const Fault& fault);

  /// Paces body sends: `bytes` per send, then `delay_ms` sleep. Zero
  /// disables. The kill-loop test uses this to stretch transfers across
  /// its SIGKILL window.
  void set_dribble(std::size_t bytes, int delay_ms);

  int port() const { return port_; }
  std::string url_for(const std::string& path) const;

  std::uint64_t requests() const { return requests_.load(); }
  std::uint64_t range_requests() const { return range_requests_.load(); }

 private:
  void serve_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> range_requests_{0};

  mutable std::mutex mutex_;  ///< guards files_, faults_, dribble_*
  std::map<std::string, std::vector<std::uint8_t>> files_;
  std::vector<Fault> faults_;  ///< FIFO; popped from the front per request
  std::size_t dribble_bytes_ = 0;
  int dribble_delay_ms_ = 0;
};

}  // namespace artemis::ingest_test
