#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the encrypted similarity cloud.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload knn_wide --seed 1 --seconds 30 --trace 0

The benchmark binary is compiled from the checkout's own sources (an
optimized CMake build under $CARGO_TARGET_DIR, default .bench_build) and
run once per call, so every workload starts in a fresh process. Its disk
files live in a fresh directory under .bench_tmp that is removed when the
run ends; traced runs write their spans under .bench_out. The last line of
standard output is the run's JSON result; build output goes to standard
error. The exit code is non-zero when the build or the run fails, and
when a correctness check fails (the JSON line then reads "correct": false).
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("knn_wide", "churn_disk")
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", str(min(4, os.cpu_count() or 1))]
    for command in (configure, compile_):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tmp = os.path.join(ROOT, ".bench_tmp",
                       "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out = os.path.join(ROOT, ".bench_out")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmp", tmp, "--out", out]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
