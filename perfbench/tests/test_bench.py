#!/usr/bin/env python3
"""End-to-end tests of the benchmark command.

Run from the repository root:

    python3 perfbench/tests/test_bench.py

Builds through perfbench/run.py (same build directory), then checks that
 - the C++ self-test passes (seeded inputs, the tail rule, failure
   accounting, span self times, the merged Chrome trace);
 - every workload, in both modes, prints exactly the metrics that
   BENCHMARK.json declares, all of them numbers;
 - every workload's output check fires on a deliberately corrupted result
   (--inject-fault): exit code 1, "correct": false, failed >= 1;
 - a --seconds beyond the run time limit is refused;
 - the command fails without printing a result when the program's
   sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)

ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkCommand(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cwd = os.getcwd()
        os.chdir(ROOT)  # run.build() resolves the build directory here
        try:
            cls.bdir = os.path.abspath(
                run.build(["cab_perfbench", "perfbench_selftest"]))
        finally:
            os.chdir(cwd)

    def test_selftest(self):
        proc = subprocess.run([os.path.join(self.bdir, "perfbench_selftest")],
                              cwd=self.bdir, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_every_declared_metric_is_printed(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    proc = bench("--workload", w, "--seed", "3",
                                 "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    res = result_line(proc)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    if trace == "1":
                        self.assertEqual(
                            res["metrics"]["obs.dropped_events"]["value"], 0)

    def test_output_check_fires_on_corrupted_result(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--seed", "5", "--seconds", "1",
                             "--trace", "0", "--inject-fault")
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                res = result_line(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_frac"]["value"], 1)

    def test_seconds_beyond_run_limit_rejected(self):
        proc = bench("--workload", "fj-irregular", "--seed", "1",
                     "--seconds", "61", "--trace", "0")
        self.assertEqual(proc.returncode, 2, proc.stderr[-2000:])
        self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_sources(self):
        tmp = tempfile.mkdtemp(prefix="bare-", dir=self.bdir)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fj-irregular", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
