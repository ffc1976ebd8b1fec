#!/usr/bin/env python3
"""Smoke tests for compare_corpus.py.

Covers identical corpora (exit 0), each compared field drifting, a run
missing from one side, run order not mattering, and unreadable input.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_corpus.py")


def run(stack="pbft", seed=1, adversary="none", passed=True,
        trace_hash="0x1", commits=10):
    return {"stack": stack, "seed": seed, "adversary": adversary,
            "passed": passed, "trace_hash": trace_hash, "commits": commits,
            "faults": 3, "silenced": 0, "liveness_resume_us": 10001}


def summary(runs):
    return {"shard_index": 0, "shard_count": 1, "total": len(runs),
            "passed": sum(r["passed"] for r in runs),
            "failed": sum(not r["passed"] for r in runs), "runs": runs}


class CompareCorpusTest(unittest.TestCase):
    def run_tool(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("a.json", a), ("b.json", b)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    if isinstance(doc, str):
                        f.write(doc)
                    else:
                        json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run([sys.executable, TOOL, *paths],
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def test_identical_corpora_agree(self):
        runs = [run(seed=1), run(stack="paxos", seed=2, adversary="gray")]
        code, out = self.run_tool(summary(runs), summary(runs))
        self.assertEqual(code, 0, out)
        self.assertIn("2 runs compared, 0 differences", out)

    def test_run_order_does_not_matter(self):
        runs = [run(seed=1), run(seed=2), run(seed=3)]
        code, out = self.run_tool(summary(runs), summary(runs[::-1]))
        self.assertEqual(code, 0, out)

    def test_each_field_is_compared(self):
        for field, value in (("passed", False), ("trace_hash", "0x2"),
                             ("commits", 11)):
            with self.subTest(field=field):
                code, out = self.run_tool(summary([run()]),
                                          summary([run(**{field: value})]))
                self.assertEqual(code, 1, out)
                self.assertIn(f"pbft seed 1 adversary none: {field}", out)

    def test_other_fields_are_ignored(self):
        changed = run()
        changed["faults"] = 99
        code, out = self.run_tool(summary([run()]), summary([changed]))
        self.assertEqual(code, 0, out)

    def test_runs_on_one_side_only_differ(self):
        code, out = self.run_tool(summary([run(seed=1), run(seed=2)]),
                                  summary([run(seed=1), run(seed=3)]))
        self.assertEqual(code, 1, out)
        self.assertIn("seed 2 adversary none: only in A", out)
        self.assertIn("seed 3 adversary none: only in B", out)

    def test_same_seed_other_adversary_is_another_run(self):
        code, out = self.run_tool(summary([run(adversary="none")]),
                                  summary([run(adversary="gray")]))
        self.assertEqual(code, 1, out)

    def test_unreadable_input(self):
        code, _ = self.run_tool("{not json", summary([run()]))
        self.assertEqual(code, 2)
        code, _ = self.run_tool(summary([run(), run()]), summary([run()]))
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
