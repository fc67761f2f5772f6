#!/usr/bin/env python3
"""The benchmark's own test: every workload at its tiny size emits every
metric BENCHMARK.json names, each with a unit, and its output checks run
and pass; a wrong output fails the run.

Run from the repository root:
    python3 perfbench/test_perfbench.py
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return sorted(m["name"] for m in json.load(f)[kind])


def tiny_run(workload, trace, seed=run.DEFAULT_SEED):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, timeout=900)
    return done


class TinyWorkloads(unittest.TestCase):
    def check_run(self, workload, trace, kind, seed=run.DEFAULT_SEED):
        done = tiny_run(workload, trace, seed)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(sorted(result["metrics"]), declared(kind))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(metric["unit"], name)
        self.assertGreaterEqual(result["attempted"], 1)
        checks = [line for line in lines if line.startswith("check ")]
        self.assertTrue(checks, "no output check ran")
        if seed == run.DEFAULT_SEED:
            self.assertTrue(any("recorded value" in c for c in checks),
                            "recorded outputs were not compared")
        if trace:
            self.assertTrue(any("layers add up" in c for c in checks))
        self.assertTrue(result["correct"], "\n".join(checks))
        return result

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 0, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")

    def test_another_seed(self):
        self.check_run("serve_sparse", 0, "end_to_end", seed=7)


class OutputChecks(unittest.TestCase):
    RESULT = {
        "workload": "serve_sparse", "seed": 1, "trace": 0,
        "attempted": 10, "failed": 0,
        "metrics": {"wall_s": {"value": 1.0, "unit": "s", "samples": 1}},
        "properties": {},
        "outputs": {"ate_max_mm": 20.0, "sim_ms_per_frame": 3.0,
                    "shed_frames": 0},
    }

    def failed(self, result, seed=2):
        return [name for name, ok, _ in run.check(result, seed, True)
                if not ok]

    def test_clean_result_passes(self):
        self.assertEqual(self.failed(self.RESULT), [])

    def test_shed_frame_fails(self):
        result = copy.deepcopy(self.RESULT)
        result["outputs"]["shed_frames"] = 1
        self.assertEqual(self.failed(result), ["no shed frames"])

    def test_recorded_value_mismatch_fails(self):
        result = copy.deepcopy(self.RESULT)
        recorded = run.expected_outputs("serve_sparse", True)
        result["outputs"].update(recorded)
        self.assertEqual(self.failed(result, run.DEFAULT_SEED), [])
        result["outputs"]["ate_max_mm"] += 0.001
        self.assertEqual(self.failed(result, run.DEFAULT_SEED),
                         ["ate_max_mm equals the recorded value"])

    def test_missing_value_fails(self):
        result = copy.deepcopy(self.RESULT)
        result["metrics"]["wall_s"]["value"] = None
        self.assertEqual(self.failed(result),
                         ["metric wall_s has a value and a unit"])

    def test_unbalanced_layers_fail(self):
        result = copy.deepcopy(self.RESULT)
        result["trace"] = 1
        result["metrics"] = {
            "trace.unattributed_frac": {"value": 0.2, "unit": "ratio"},
            "serve.self_frac": {"value": 0.8, "unit": "ratio"},
        }
        self.assertEqual(len(self.failed(result)), 1)


if __name__ == "__main__":
    unittest.main()
