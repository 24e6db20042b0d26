#!/usr/bin/env python3
"""Builds and runs the layer-resolved PASS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
the library and the benchmark (Release) under .bench_build/perfbench; later
runs only rebuild what changed. The benchmark's report goes to standard
output; its last line is the JSON result. Traced runs write their spans to
.bench_build/perfbench/spans/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_repeat", "serve_fanout", "scan_heavy", "ingest_mixed")
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    """Configures on first use, then builds; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: standard output carries the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        print("perfbench: no library sources next to " + bench_dir,
              file=sys.stderr)
        return 1
    if not build(bench_dir, build_dir):
        return 1

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(
               span_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # Keep the report, but never a result line from a failed run.
        sys.stdout.write("\n".join("# " + l for l in lines) + "\n")
        print("perfbench: exited with %d" % done.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
