#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from a source checkout.

    python3 perfbench/run.py --workload serve|join --seed N \
        --seconds S --trace 0|1

Run from the repository root. The library and the benchmark are built with
CMake (Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset;
the benchmark binary's own output is passed through, and its last line is
the JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    binary_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", binary_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve", "join"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_dir, "perfbench-work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
