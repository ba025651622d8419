#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of a checkout (builds into $CARGO_TARGET_DIR or
.bench_build, like run.py):

    python3 -m unittest e2ebench/test_e2ebench.py

Every run here uses --tiny campaign budgets, so the whole file takes about
a minute after the first build.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, cwd=ROOT, seed=1):
    """Runs run.py on a tiny budget; returns (exit code, result or None)."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


class TinyRunsTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        # All three workloads, including the one BENCHMARK.json leaves out.
        names = load_run_module().WORKLOADS
        self.assertEqual(len(names), 3)
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(names))
        for workload in names:
            for trace, spec in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, spec)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                _, result = run_bench(workload, 0, seed=2)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


def load_run_module():
    spec = importlib.util.spec_from_file_location("e2ebench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class PinnedResultTest(unittest.TestCase):
    """Runs run.py in-process with its pins file swapped for a copy."""

    def run_with_pins(self, pins, seed):
        run = load_run_module()
        argv = ["run.py", "--workload", "bf-intel-kvm", "--seed", str(seed),
                "--seconds", "0", "--trace", "0", "--tiny"]
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pins.json"
            path.write_text(json.dumps(pins))
            with mock.patch.object(run, "PINS", path), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out):
                code = run.main()
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_perturbed_pin_fails_the_check(self):
        pins = json.loads((HERE / "pins.json").read_text())
        for field, bump in (("coverage_pct", lambda v: v + 0.5),
                            ("covered_hash", lambda v: "0" * 16),
                            ("findings", lambda v: v + ["made-up-bug"])):
            with self.subTest(field=field):
                perturbed = json.loads(json.dumps(pins))
                pin = perturbed["bf-intel-kvm"]["tiny"]["1"]
                pin[field] = bump(pin[field])
                code, result = self.run_with_pins(perturbed, seed=1)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_unperturbed_pin_passes(self):
        pins = json.loads((HERE / "pins.json").read_text())
        code, result = self.run_with_pins(pins, seed=1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])

    def test_pins_only_apply_to_their_seed(self):
        pins = json.loads((HERE / "pins.json").read_text())
        tiny = pins["bf-intel-kvm"]["tiny"]
        tiny["1"]["coverage_pct"] += 0.5
        unpinned = max(int(seed) for seed in tiny) + 1
        code, result = self.run_with_pins(pins, seed=unpinned)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "e2ebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "build"))
            done = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload",
                 "bf-intel-kvm", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
