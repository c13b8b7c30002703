#!/usr/bin/env python3
"""Bytes-to-alerts benchmark for the ARTEMIS reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload archive_import --seed 1 --seconds 25 --trace 0

Builds the library from src/ plus the e2e_bench program (perfbench/src/)
in .bench_build/ (Release), runs one workload and prints, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list (from a separate traced session;
a per-layer metric the workload's path does not exercise reads 0). The
line before it is the environment record (nproc, CPU model, compiler,
build type, seed, commit). Notes, check failures and the traced run's
per-layer self-time table go to stderr; span dumps go to
.bench_build/traces/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("archive_import", "tenant_replay", "live_feed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds e2e_bench; returns its path."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (full log in .bench_build/build.log)")
    return os.path.join(cmake_dir, "e2e_bench")


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ingest", "pipeline.hpp")):
        fail("no ARTEMIS sources next to perfbench/ (expected src/ingest/pipeline.hpp)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work"),
           "--trace-dir", os.path.join(BUILD, "traces"), "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("e2e_bench timed out")
    if proc.returncode != 0:
        fail(f"e2e_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("e2e_bench printed no result")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in raw["metrics"]:
            value = raw["metrics"][name]
            if value is None:
                fail(f"metric {name} is not a finite number")
        elif args.trace:
            value = 0.0  # the layer does no work on this workload's path
        else:
            fail(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    print(json.dumps({"env": raw["env"]}))
    print(json.dumps({
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
