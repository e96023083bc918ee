#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py        # from the repository root

Every workload runs at test size (--tiny), traced and untraced: each run
must pass its correctness gates and print exactly the metric names and
units BENCHMARK.json lists.  Also checks the histogram self-test, that one
seed always yields the same inputs, and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flow", "reach", "sim", "serve")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tiny(workload, trace, seed=1):
    return run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny"])


class BenchmarkTest(unittest.TestCase):
    def test_self_test(self):
        proc = run(["--self-test"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])

    def check_run(self, workload, trace, section):
        proc = tiny(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(proc.stdout.startswith("# fingerprint "))
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in bench_spec()[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_traced_runs_report_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")
                trace = os.path.join(ROOT, ".bench_build",
                                     f"trace-{workload}-1.jsonl")
                with open(trace) as f:
                    first = json.loads(f.readline())
                self.assertIn("self_ns", first)

    def test_same_seed_same_inputs(self):
        def model(seed):
            metrics = result_of(tiny("sim", 1, seed))["metrics"]
            return metrics["sim.model.cycles"]["value"]
        self.assertEqual(model(7), model(7))
        self.assertNotEqual(model(7), model(8))

    def test_bad_usage_exits_2(self):
        proc = run(["--workload", "nope", "--seed", "1", "--seconds", "1",
                    "--trace", "0"])
        self.assertEqual(proc.returncode, 2)

    def test_refuses_without_the_program_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "flow", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=isolated)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
