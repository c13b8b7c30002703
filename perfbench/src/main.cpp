// e2e_bench: the bytes-to-alerts benchmark program (see perfbench/run.py).
//
//   e2e_bench --workload archive_import|tenant_replay|live_feed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//             [--commit ID]
//
// Prints human-readable notes (check failures, setup samples, the traced
// self-time table) on stderr and one JSON object on stdout: the
// environment record, the correctness ledger and every metric the
// workload measured, by name. run.py selects the metrics BENCHMARK.json
// lists for the run mode.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr, "error: %s\n", what);
  std::fprintf(stderr,
               "usage: e2e_bench --workload archive_import|tenant_replay|live_feed "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR] "
               "[--commit ID]\n");
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  ctx.work_dir = ".bench_build/work";
  ctx.trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      ctx.workload = value;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      ctx.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      ctx.work_dir = value;
    } else if (arg == "--trace-dir") {
      ctx.trace_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(ctx.seconds > 0)) usage("--seconds must be positive");
  ctx.work_dir += "/" + ctx.workload;

  perfbench::RunResult result;
  try {
    perfbench::remove_tree(ctx.work_dir);
    perfbench::make_dirs(ctx.work_dir);
    if (ctx.trace) perfbench::make_dirs(ctx.trace_dir);
    if (ctx.workload == "archive_import") {
      result = perfbench::run_archive_import(ctx);
    } else if (ctx.workload == "tenant_replay") {
      result = perfbench::run_tenant_replay(ctx);
    } else if (ctx.workload == "live_feed") {
      result = perfbench::run_live_feed(ctx);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const auto& note : result.notes) std::fprintf(stderr, "%s\n", note.c_str());
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  result.set("error_rate", error_rate);

  std::string out = "{\"env\":{";
  out += "\"workload\":" + json_string(ctx.workload);
  out += ",\"seed\":" + std::to_string(ctx.seed);
  out += ",\"trace\":" + std::string(ctx.trace ? "1" : "0");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + json_string(cpu_model());
  out += ",\"compiler\":" + json_string(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"commit\":" + json_string(commit);
  out += "},\"correct\":" + std::string(result.correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  bool first = true;
  char number[64];
  for (const auto& [name, value] : result.metrics) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!std::isfinite(value)) std::snprintf(number, sizeof(number), "null");
    out += first ? "" : ",";
    out += json_string(name);
    out += ':';
    out += number;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
