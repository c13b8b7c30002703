#!/usr/bin/env bash
# Records one point of the tracked bench trajectory (ROADMAP): runs
# bench_micro, bench_pipeline, bench_journal and bench_mrt_import with
# --benchmark_format=json and merges the reports into BENCH_<n>.json,
# where <n> auto-increments per output directory. CI runs this and gates
# on bench/check_bench_regression.py. Every bench in those binaries is
# recorded automatically — the PR-5 additions (BM_TrieLpmLookupV6*,
# BM_MrtDecodeMpReach) ride along with no changes here; the GATED subset
# lives in .github/workflows/ci.yml (--benchmark flags).
#
# The merged report's "context" also records the CMake build type of
# build_dir as "artemis_build_type" (google-benchmark's own
# "library_build_type" describes the installed libbenchmark, not this
# code), so a Debug-built point cannot pass for a Release one.
#
# Usage: bench/record_bench.sh [build_dir] [out_dir]
#   BENCH_MIN_TIME  google-benchmark --benchmark_min_time value
#                   (default 0.05; CI wants fast smoke runs)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench/results}"
MIN_TIME="${BENCH_MIN_TIME:-0.05}"

BINS=(bench_micro bench_pipeline bench_journal bench_mrt_import)
for bin in "${BINS[@]}"; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "error: $BUILD_DIR/$bin not built (need google-benchmark)" >&2
    exit 1
  fi
done

mkdir -p "$OUT_DIR"
n=0
while [ -e "$OUT_DIR/BENCH_${n}.json" ]; do n=$((n + 1)); done
out="$OUT_DIR/BENCH_${n}.json"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

reports=()
for bin in "${BINS[@]}"; do
  "$BUILD_DIR/$bin" --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$tmpdir/$bin.json"
  reports+=("$tmpdir/$bin.json")
done

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
python3 - "$out" "${build_type:-unknown}" "${reports[@]}" <<'EOF'
import json, sys
out_path, build_type, first, *rest = sys.argv[1:]
with open(first) as f:
    merged = json.load(f)
merged["context"]["artemis_build_type"] = build_type
for path in rest:
    with open(path) as f:
        merged["benchmarks"].extend(json.load(f)["benchmarks"])
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
EOF

echo "$out"
