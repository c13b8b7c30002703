#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "common.hpp"

namespace perfbench::trace {

namespace {

struct Record {
  const char* name;
  int parent;
  std::int64_t start;
  std::int64_t end;
};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Record> records;
  std::vector<int> open;  ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;  // guards g_buffers
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::scoped_lock lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size() - 1);
    buffer->records.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void clear() {
  const std::scoped_lock lock(g_mutex);
  for (auto& buffer : g_buffers) {
    buffer->records.clear();
    buffer->open.clear();
  }
}

Span::Span(const char* name) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  index_ = static_cast<int>(buffer.records.size());
  const int parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.records.push_back(Record{name, parent, now_ns(), 0});
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.records[static_cast<std::size_t>(index_)].end = now_ns();
  buffer.open.pop_back();
}

std::int64_t LayerTable::self(const std::string& name) const {
  const auto it = self_ns.find(name);
  return it == self_ns.end() ? 0 : it->second;
}

std::int64_t LayerTable::total(const std::string& name) const {
  const auto it = total_ns.find(name);
  return it == total_ns.end() ? 0 : it->second;
}

std::int64_t LayerTable::count(const std::string& name) const {
  const auto it = calls.find(name);
  return it == calls.end() ? 0 : it->second;
}

LayerTable summarize(const std::string& root) {
  const std::scoped_lock lock(g_mutex);
  LayerTable table;
  for (const auto& buffer : g_buffers) {
    const auto& records = buffer->records;
    std::vector<std::int64_t> child_ns(records.size(), 0);
    for (const Record& r : records) {
      if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      const std::int64_t dur = r.end - r.start;
      const std::int64_t self = dur - child_ns[i];
      table.self_ns[r.name] += self;
      table.total_ns[r.name] += dur;
      table.calls[r.name] += 1;
      if (r.parent < 0 && root == r.name) {
        table.root_wall_ns += dur;
        table.root_self_ns += self;
      }
    }
  }
  return table;
}

void dump(const std::string& path, const std::string& run_id) {
  const std::scoped_lock lock(g_mutex);
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) origin = std::min(origin, r.start);
  }
  std::ofstream out(path, std::ios::binary);
  char line[512];
  for (const auto& buffer : g_buffers) {
    const auto& records = buffer->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      const int n = std::snprintf(
          line, sizeof(line),
          "{\"run\":\"%s\",\"thread\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
          "\"start_ns\":%lld,\"end_ns\":%lld}\n",
          run_id.c_str(), buffer->thread, i, r.parent, r.name,
          static_cast<long long>(r.start - origin),
          static_cast<long long>(r.end - origin));
      out.write(line, n);
    }
  }
}

std::vector<std::string> render(const LayerTable& table) {
  std::vector<std::string> lines;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %8s", "span", "calls",
                "total_ms", "self_ms", "self%");
  lines.emplace_back(line);
  const double wall = static_cast<double>(table.root_wall_ns);
  for (const auto& [name, self] : table.self_ns) {
    std::snprintf(line, sizeof(line), "%-28s %10lld %12.3f %12.3f %7.2f%%",
                  name.c_str(), static_cast<long long>(table.count(name)),
                  static_cast<double>(table.total_ns.at(name)) / 1e6,
                  static_cast<double>(self) / 1e6,
                  wall > 0 ? 100.0 * static_cast<double>(self) / wall : 0.0);
    lines.emplace_back(line);
  }
  // Per-layer rollup: the layer is the span name up to its first dot.
  std::map<std::string, std::int64_t> by_layer;
  for (const auto& [name, self] : table.self_ns) by_layer[name.substr(0, name.find('.'))] += self;
  for (const auto& [layer, self] : by_layer) {
    std::snprintf(line, sizeof(line), "layer %-22s self %12.3f ms %7.2f%%", layer.c_str(),
                  static_cast<double>(self) / 1e6,
                  wall > 0 ? 100.0 * static_cast<double>(self) / wall : 0.0);
    lines.emplace_back(line);
  }
  std::snprintf(line, sizeof(line),
                "reconciliation: root wall %.3f ms, root self (unattributed) %.3f ms "
                "= %.2f%%",
                wall / 1e6, static_cast<double>(table.root_self_ns) / 1e6,
                wall > 0 ? 100.0 * static_cast<double>(table.root_self_ns) / wall : 0.0);
  lines.emplace_back(line);
  return lines;
}

}  // namespace perfbench::trace
