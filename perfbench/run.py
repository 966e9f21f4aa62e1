#!/usr/bin/env python3
"""Builds the library and the benchmark harness from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload fb_replay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One workload prints each metric as "name value unit" and, as its last
line, one JSON object with keys correct, attempted, failed and metrics.
With no --workload every workload runs in both modes. The exit code is
non-zero when the build fails or any output check fails.

The build goes to .bench_build/perfbench under the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
SPEC = os.path.join(HERE, "scenario_karma.json")
WORKLOADS = ["fb_replay", "serve_drf", "scenario_karma"]
DEFAULT_SEED = 20180701


def build():
    """Configures (once) and builds the harness; False if either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs one workload; prints its output and returns its exit code."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spec", SPEC]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * seconds + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print("perfbench: %s exited %d" % (workload, proc.returncode),
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        print("perfbench: %s reports %s, BENCHMARK.json declares %s"
              % (workload, sorted(result["metrics"]), sorted(declared)),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, args.trace == 1)
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            print("== %s trace=%d seed=%d" % (workload, trace, args.seed))
            status = run_one(workload, args.seed, args.seconds, trace) or status
    print("perfbench: %s" % ("all output checks passed" if status == 0
                             else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())
