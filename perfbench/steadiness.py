#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steadiness.py [--runs 5] [--seconds N]
                                    [--workloads a,b] [--first-seed 1]

Runs every workload --runs times through perfbench/run.py, interleaved
(round r runs each workload once, with seed first-seed + r), then prints
for each workload and metric the median, the quartiles and the spread
(Q3 - Q1 as a share of the median) next to the metric's bound from
BENCHMARK.json. A metric whose spread exceeds its bound is flagged FAIL;
one above a third of its bound is flagged tight. The exit code is 1 if any
run failed, reported correct=false, or a gated metric failed. setup_s is
reported but not gated on spread, as the benchmark contract does not gate it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    bad = 0
    for r in range(args.runs):
        for w in workloads:
            seed = args.first_seed + r
            result = run_once(w, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: run failed or incorrect")
                bad += 1
                continue
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':34} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[w][m["name"]]
            if len(vals) < 2:
                print(f"  {m['name']:34} (fewer than 2 runs)")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m["bound"]
            flag = ""
            if spread > bound:
                gated = m["name"] != "setup_s"
                flag = "FAIL" if gated else "(ungated)"
                bad += gated
            elif spread > bound / 3:
                flag = "tight"
            print(f"  {m['name']:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bound:6.2f} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
