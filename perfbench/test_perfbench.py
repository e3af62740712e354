#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the repository root. Each test runs perfbench/run.py on a tiny
scale (a few seconds per run; the first run builds).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SECONDS = "3"


def run(workload, trace=0, inject="", cwd=ROOT, seed=4):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", TINY_SECONDS, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRunTest(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for w in bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    out = last_json(proc)
                    self.assertEqual(
                        set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in bench[key]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    # The report line before it carries the host meta.
                    report = json.loads(proc.stdout.strip().splitlines()[-2])
                    for k in ("nproc", "cpu_model", "l2", "l3", "kernel"):
                        self.assertIn(k, report["host"])


class InjectedFaultTest(unittest.TestCase):
    def test_flipped_oracle_bit_fails_the_run(self):
        proc = run("paper_pool", inject="oracle-flip")
        self.assertNotEqual(proc.returncode, 0)
        out = last_json(proc)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)
        self.assertIn("false negatives", proc.stderr)

    def test_follower_skipping_a_batch_fails_the_run(self):
        proc = run("enforced_replicated", inject="follower-skip")
        self.assertNotEqual(proc.returncode, 0)
        out = last_json(proc)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])
        self.assertIn("follower snapshot differs", proc.stderr)


class WithoutSourcesTest(unittest.TestCase):
    def test_refuses_without_the_repository_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(base):
            base = os.path.join(ROOT, base)
        bare = os.path.join(base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_pool",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
