#!/usr/bin/env python3
"""Tests of the repository benchmark, in smoke mode (tiny problem sizes).

Run from the repository root:

    python3 perfbench/test_perfbench.py

For every workload BENCHMARK.json lists and both modes, runs
`perfbench/run.py --smoke` and checks that the result line is well formed,
that every operation passed its checks, and that the metrics are exactly
the end-to-end (--trace 0) or per-layer (--trace 1) names BENCHMARK.json
lists, each with its declared unit.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner's workload table)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def test_workloads_match_runner(self):
        self.assertEqual(sorted(w["name"] for w in load_spec()["workloads"]),
                         sorted(run.THREADS))

    def check_mode(self, trace, listed):
        for workload in sorted(run.THREADS):
            with self.subTest(workload=workload, trace=trace):
                proc = run_smoke(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics),
                                 sorted(m["name"] for m in listed))
                for m in listed:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_emitted(self):
        self.check_mode(0, load_spec()["end_to_end"])

    def test_per_layer_metrics_emitted(self):
        self.check_mode(1, load_spec()["per_layer"])

    def test_same_seed_same_checks(self):
        # Inputs come from the seed alone, so the optimizer replay's exact
        # counts repeat for one seed.
        first = run_smoke("labs20_optimize", 1, seed=5)
        second = run_smoke("labs20_optimize", 1, seed=5)
        self.assertEqual(first.returncode, 0, first.stderr[-2000:])
        a = json.loads(first.stdout.strip().splitlines()[-1])
        b = json.loads(second.stdout.strip().splitlines()[-1])
        for name in ("optimize.evaluations", "optimize.batches"):
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"])

    def test_refuses_without_source_tree(self):
        # A directory holding only BENCHMARK.json and perfbench/ has no
        # program to build: the runner fails fast without a result line.
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sk16_serve", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
