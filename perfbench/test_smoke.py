#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, checking that every metric BENCHMARK.json names is emitted with its
unit, that no operation failed and that every correctness gate passed.

Run from the root of a checkout:  python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SMOKE_SECONDS = "1"
SMOKE_SEED = "7"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", SMOKE_SEED, "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stdout)
        gates = [l for l in lines if l.startswith("gate ")]
        self.assertTrue(gates, "no correctness gate ran")
        for g in gates:
            self.assertIn(" PASS ", g)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            printed = [l for l in lines if l.split()[:2] == ["metric", m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])


def make_test(workload, trace):
    return lambda self: self.check(workload, trace)


for _w in (w["name"] for w in SPEC["workloads"]):
    for _t in (0, 1):
        setattr(Smoke, "test_%s_%s" % (_w, "traced" if _t else "untraced"), make_test(_w, _t))

if __name__ == "__main__":
    unittest.main(verbosity=2)
