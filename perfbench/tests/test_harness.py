#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, on reduced sizes.

    python3 perfbench/tests/test_harness.py

Checks, for every workload of BENCHMARK.json and for serve_mix:
  - an untraced run prints exactly the end-to-end metrics, each with its
    unit and a non-zero value, and counts no failure;
  - a traced run prints exactly the per-layer metrics with their units;
  - a run told to expect one wrong answer counts it as failed;
and that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
REPO = os.path.dirname(PERFBENCH)
BENCH = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
# serve_mix is runnable but not in BENCHMARK.json (see README.md); it is
# checked here all the same.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["serve_mix"]


def run(workload, *extra, cwd=REPO, trace=0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--reduced", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr[-2000:]
    assert lines, "no output"
    return json.loads(lines[-1])


class HarnessTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = result_of(run(w))
                self.check_metrics(result, BENCH["end_to_end"])
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = result_of(run(w, trace=1))
                self.check_metrics(result, BENCH["per_layer"])
                self.assertEqual(result["failed"], 0)

    def test_a_wrong_answer_raises_fail_frac(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                done = run(w, "--inject-wrong-answer")
                result = result_of(done)
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])
                summary = [l for l in done.stdout.splitlines() if "fail_frac=" in l]
                self.assertTrue(summary)
                self.assertGreater(float(summary[-1].rsplit("fail_frac=", 1)[1]), 0.0)

    def test_fails_without_the_sources(self):
        bare = os.path.join(REPO, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("e1_grid", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
