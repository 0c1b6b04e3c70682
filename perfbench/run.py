#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness is compiled from source into
.bench_build/perfbench (CARGO_TARGET_DIR's directory, if set, is not used:
this is a C++ build). Build output goes to stderr; the last line of stdout
is the harness's JSON result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mcs_perfbench")
WORKLOADS = ("policy_grid", "fleet_stream", "fuzz_batch")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    compile_ = ["cmake", "--build", BUILD, "--target", "mcs_perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == pinned["default_seed"]:
        cmd += ["--expect-digest", pinned["digests"][args.workload]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("unexpected result keys: %s" % sorted(result))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
