#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Builds and runs the GoogleTest binary (digest gate, reference path, replay
equality), then drives run.py end to end for every workload in both modes
and checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

BENCHMARK = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=0xB0A7):
    """Runs run.py at tiny size; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=run.CHECKOUT, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class GoogleTests(unittest.TestCase):
    def test_perfbench_test_binary_passes(self):
        binary = run.build("perfbench_test")
        proc = subprocess.run([str(binary)], capture_output=True, text=True,
                              timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class ResultLine(unittest.TestCase):
    def check(self, workload, trace, seed):
        code, lines = bench(workload, trace, seed)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in listed})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        meta = json.loads(lines[-2])["meta"]
        self.assertEqual(meta["workload"], workload)
        self.assertEqual(meta["failed_ops_ratio"], 0)
        for key in ("gf_kernel", "nproc", "engine_threads", "build_type",
                    "git_commit", "digests"):
            self.assertIn(key, meta)
        if not trace:
            summary = "\n".join(lines[:-2])
            for m in listed + [{"name": "failed_ops_ratio"}]:
                self.assertIn(m["name"], summary)
        return result

    def test_every_workload_untraced_at_the_recorded_seed(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, 0xB0A7)

    def test_every_workload_untraced_at_another_seed(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, 3)

    def test_every_workload_traced(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, 5)["metrics"]
                shares = [m["value"] for n, m in metrics.items()
                          if n.endswith(".share")]
                self.assertGreaterEqual(sum(shares), 0.9)

    def test_bad_workload_is_refused(self):
        code, lines = bench("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class WithoutSources(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        bare = run.CHECKOUT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.CHECKOUT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [*BENCHMARK["command"], "--workload", "mc_pair", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
