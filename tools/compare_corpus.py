#!/usr/bin/env python3
"""Compare two chaos-corpus summaries run for run.

Usage: compare_corpus.py A.json B.json

A and B are `run_corpus --out` summaries (one shard or the whole corpus).
Runs are matched by their identity (stack, seed, adversary) and compared
on `passed`, `trace_hash` and `commits`. A run present on one side only
also counts as a difference. Exits 0 when the two corpora agree on every
run, 1 on any difference (each one printed), 2 on unreadable input.

A behaviour-neutral change (a refactor, a data-structure swap, a
performance fix) must reproduce the parent's corpus exactly: run the full
corpus on both builds and require zero differences here.
"""

import json
import sys

FIELDS = ("passed", "trace_hash", "commits")


def load_runs(path):
    """Returns {(stack, seed, adversary): run} for one summary file."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for run in doc["runs"]:
        key = (run["stack"], run["seed"], run["adversary"])
        if key in runs:
            raise ValueError(f"{path}: duplicate run {fmt(key)}")
        runs[key] = run
    return runs


def fmt(key):
    stack, seed, adversary = key
    return f"{stack} seed {seed} adversary {adversary}"


def compare(a, b):
    """Returns one line per difference between two run maps."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        if key not in b:
            diffs.append(f"{fmt(key)}: only in A")
        elif key not in a:
            diffs.append(f"{fmt(key)}: only in B")
        else:
            for field in FIELDS:
                va, vb = a[key].get(field), b[key].get(field)
                if va != vb:
                    diffs.append(f"{fmt(key)}: {field} {va} -> {vb}")
    return diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        a, b = load_runs(argv[1]), load_runs(argv[2])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"compare_corpus: cannot read summaries: {e}", file=sys.stderr)
        return 2
    diffs = compare(a, b)
    for line in diffs:
        print(line)
    print(f"{len(set(a) | set(b))} runs compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
