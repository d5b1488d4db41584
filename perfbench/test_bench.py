#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Smoke-runs every workload at `--size small`, untraced and traced, and
checks that each metric named in BENCHMARK.json is printed with its
unit; checks that a broken output (a forced drop) fails the run; and
checks that a directory holding only the benchmark's files fails
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace=0, extra=(), cwd=ROOT, script=None):
    cmd = [
        sys.executable, script or os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "small",
    ] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


class Smoke(unittest.TestCase):
    def check(self, workload, trace, names):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, err[-2000:])
        out = result(lines)
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in names})
        for m in names:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertTrue(any(l.startswith("provenance ") for l in lines))
        self.assertTrue(any(l.startswith("digest ") for l in lines))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], 1, SPEC["per_layer"])


class BrokenChecks(unittest.TestCase):
    def test_forced_drop_fails_the_serve_run(self):
        code, lines, _ = run("serve_feeds", extra=["--inject", "drop"])
        self.assertNotEqual(code, 0)
        out = result(lines)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertTrue(any("dropped" in l for l in lines if l.startswith("CHECK FAILED")))

    def test_missing_generation_fails_the_pipeline_run(self):
        code, lines, _ = run("month_gru", extra=["--inject", "drop"])
        self.assertNotEqual(code, 0)
        self.assertFalse(result(lines)["correct"])

    def test_bare_benchmark_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_tmp", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        try:
            code, lines, _ = run("serve_feeds", cwd=bare,
                                 script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
