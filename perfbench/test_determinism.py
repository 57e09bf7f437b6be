#!/usr/bin/env python3
"""Determinism self-check of the perfbench benchmark.

    python3 perfbench/test_determinism.py [--seconds S] [workload ...]

For each workload, two traced runs of one seed must report identical
deterministic counts, and a run of a second seed must change them (the
seed reaches the inputs). Every run must also be correct with no failed
operation, and print exactly the metrics BENCHMARK.json lists. Run from the
repository root; exits non-zero on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that depend only on the seed, never on timing.
COUNTS = {
    "serve": ["hamming.candidates", "hamming.candidates_l1", "hamming.index_hits",
              "hamming.chain_checks", "hamming.ring_gain"],
    "join": ["hamming.candidates", "hamming.index_hits", "hamming.chain_checks",
             "hamming.ring_gain", "engine.join_pairs.hamming",
             "engine.join_pairs.sets", "engine.join_pairs.strings",
             "engine.join_pairs.graphs", "engine.join_candidates.hamming",
             "engine.join_candidates.sets", "engine.join_candidates.strings",
             "engine.join_candidates.graphs"],
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("workloads", nargs="*", default=["serve", "join"])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}

    failures = []
    for workload in args.workloads:
        first = run(workload, 1, args.seconds, 1)
        again = run(workload, 1, args.seconds, 1)
        other = run(workload, 2, args.seconds, 1)
        plain = run(workload, 1, args.seconds, 0)
        for name, result in [("seed 1", first), ("seed 1 again", again),
                             ("seed 2", other), ("seed 1 untraced", plain)]:
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{workload} {name}: correct={result['correct']} "
                                f"failed={result['failed']}")
        if set(first["metrics"]) != per_layer:
            failures.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        if set(plain["metrics"]) != end_to_end:
            failures.append(f"{workload}: untraced metrics differ from BENCHMARK.json")
        changed = [c for c in COUNTS[workload]
                if first["metrics"][c]["value"] != again["metrics"][c]["value"]]
        if changed:
            failures.append(f"{workload}: counts changed between runs of one seed: {changed}")
        if all(first["metrics"][c]["value"] == other["metrics"][c]["value"]
               for c in COUNTS[workload]):
            failures.append(f"{workload}: a second seed left every count unchanged")
        print(f"{workload}: " + ", ".join(
            f"{c}={first['metrics'][c]['value']:g}" for c in COUNTS[workload]))

    for failure in failures:
        print("FAIL:", failure)
    print("determinism check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
