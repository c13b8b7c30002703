// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer, named "<layer>.<call>" (mrt.gunzip,
// journal.append, ...). Each records start, end, the enclosing span on the
// same thread (its parent) and the thread; spans live in per-thread
// buffers until the run ends and are then dumped as JSON lines. A span's
// self time is its duration minus the time its children cover, so the
// self times of one thread's spans tile the root span exactly and any
// time the benchmark spends outside a layer call shows up as the self
// time of the root ("bench.*") span: the unattributed share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Turns recording on or off (off: Span is a branch and nothing else).
void set_enabled(bool on);
bool enabled();
/// Drops every recorded span (buffers stay registered).
void clear();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

struct LayerTable {
  /// Self nanoseconds and call counts per span name, over all threads.
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::int64_t> total_ns;
  std::map<std::string, std::int64_t> calls;
  /// Wall time of the root span on the driving thread, and the part of
  /// it no layer span covers (the root's own self time).
  std::int64_t root_wall_ns = 0;
  std::int64_t root_self_ns = 0;

  std::int64_t self(const std::string& name) const;
  std::int64_t total(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
};

/// Aggregates every recorded span. `root` names the driving thread's
/// root span (the reconciliation base).
LayerTable summarize(const std::string& root);

/// Writes all spans as JSON lines: {"run","thread","id","parent","name",
/// "start_ns","end_ns"} with times relative to the first span.
void dump(const std::string& path, const std::string& run_id);

/// Renders the per-layer self-time table with its reconciliation against
/// the root span's wall time, one line per entry.
std::vector<std::string> render(const LayerTable& table);

}  // namespace perfbench::trace
