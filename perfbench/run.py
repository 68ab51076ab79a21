#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload zi_deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The build (CMake, Release, perfbench/
CMakeLists.txt over ../src) goes to .bench_build/perfbench and is reused by
later runs.  Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  A traced run (--trace 1) also writes its spans to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.  --self-test builds
and runs the equivalence test instead of a workload.  Exits non-zero when
the build fails, a correctness gate fails, or the run overruns.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("zi_deep", "attack_live", "paper_offline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree to build next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(command):
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        if not build("perfbench_equivalence"):
            return 1
        return run([os.path.join(BUILD, "perfbench_equivalence")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build("fnda_perfbench"):
        return 1
    command = [os.path.join(BUILD, "fnda_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
