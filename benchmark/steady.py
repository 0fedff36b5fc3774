#!/usr/bin/env python3
"""Steadiness report for the ElasticRMI benchmark.

Runs each workload repeatedly, each run with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json. With --sets 2 it repeats the whole series and reports, per
metric, how far the second median moved from the first; the sets agree
when it moved by no more than the bound in either direction.

Run from the repository root:

    python3 benchmark/steady.py --runs 10 --sets 2
    python3 benchmark/steady.py --workloads elastic-churn --runs 5

Workloads alternate within a round, so slow drift of the host spreads over
all of them. A run whose output check fails is reported and stops the
series. The exit code is 0 only if every spread is within its bound and,
with --sets 2, the sets agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which second is worse than first (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed", type=int, default=1000, help="first seed; each run takes the next")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    seed = args.seed
    medians = []  # per set: {(workload, metric): median}
    ok = True
    for s in range(args.sets):
        values = {(w, m["name"]): [] for w in names for m in metrics}
        for _ in range(args.runs):
            for w in names:
                result = run_once(spec, w, seed)
                for m in metrics:
                    values[(w, m["name"])].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} {w} seed {seed}: attempted={result['attempted']} failed={result['failed']}", flush=True)
            seed += 1

        print(f"\nset {s + 1}: {args.runs} runs per workload")
        print(f"{'workload':14} {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        med = {}
        for w in names:
            for m in metrics:
                q1, md, q3, sp = spread(values[(w, m["name"])])
                med[(w, m["name"])] = md
                bound = m["bound"]
                if sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within bound, above a third"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"{w:14} {m['name']:32} {md:14.4f} {q1:14.4f} {q3:14.4f} {sp:8.4f} {bound:6.2f}  {verdict}")
        medians.append(med)

    if args.sets == 2:
        print("\nsecond set against first (share worse; negative is better)")
        for w in names:
            for m in metrics:
                d = worse_by(medians[0][(w, m["name"])], medians[1][(w, m["name"])], m["better"])
                agree = abs(d) <= m["bound"]
                verdict = "agree" if agree else "DISAGREE"
                ok = ok and agree
                print(f"{w:14} {m['name']:32} {d:+8.4f} bound {m['bound']:.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
