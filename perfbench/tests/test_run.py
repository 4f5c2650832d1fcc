#!/usr/bin/env python3
"""End-to-end tests of the benchmark.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/tests/test_run.py

The C++ unit tests (span arithmetic, open-loop timing, golden checks)
are the perfbench_unit_tests binary in .bench_build/perfbench; this
file runs it too.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("batch-paper", "batch-deep", "serve-mixed")
END_TO_END = ("setup_s", "graphs_per_s", "cpu_ms_per_graph", "peak_rss_mb",
              "ok_frac", "cold_p50_ms", "hit_p50_ms")


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_runs_untraced_and_traced(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            manifest = json.load(handle)
        per_layer = [m["name"] for m in manifest["per_layer"]]
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = run("--workload", workload, "--seed", "5",
                               "--seconds", "1", "--trace", trace,
                               "--scale", "0")
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    r = result_of(done)
                    self.assertEqual(sorted(r),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = END_TO_END if trace == "0" else per_layer
                    self.assertEqual(sorted(r["metrics"]), sorted(want))
                    self.assertTrue(any(line.startswith("host: ")
                                        for line in done.stdout.splitlines()))

    def test_default_seed_checks_against_golden_files(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--seed", "1",
                           "--seconds", "1", "--scale", "0")
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.assertTrue(result_of(done)["correct"])


class GoldenCorruption(unittest.TestCase):
    def test_corrupted_digest_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in os.listdir(os.path.join(BENCH, "golden")):
                shutil.copy(os.path.join(BENCH, "golden", name), tmp)
            path = os.path.join(tmp, "batch-paper.golden")
            with open(path) as handle:
                lines = handle.read().splitlines(True)
            for i, line in enumerate(lines):
                if line.startswith("0 "):
                    key, item, csv = line.split()
                    flipped = csv[:-1] + ("0" if csv[-1] != "0" else "1")
                    lines[i] = "%s %s %s\n" % (key, item, flipped)
            with open(path, "w") as handle:
                handle.writelines(lines)
            done = run("--workload", "batch-paper", "--seed", "1",
                       "--seconds", "1", "--scale", "0", "--golden-dir", tmp)
            self.assertEqual(done.returncode, 1)
            r = result_of(done)
            self.assertFalse(r["correct"])
            self.assertGreaterEqual(r["failed"], 1)


class IncompleteCheckout(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("--workload", "batch-paper", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests(self):
        binary = os.path.join(ROOT, ".bench_build", "perfbench",
                              "perfbench_unit_tests")
        subprocess.run(["cmake", "--build",
                        os.path.join(ROOT, ".bench_build", "perfbench"),
                        "--target", "perfbench_unit_tests"],
                       check=True, capture_output=True, timeout=600)
        done = subprocess.run([binary], capture_output=True, text=True,
                              timeout=120)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])


if __name__ == "__main__":
    unittest.main()
