#!/usr/bin/env python3
"""The benchmark's own test: its checks must catch wrong outputs.

    python3 hbftbench/test_bench.py        (from the root of a checkout)

Builds like run.py does, then runs every workload briefly: clean runs must
pass with every per-layer metric present and spans linked to their parents;
a run that expects a wrong checksum or payload must fail; the fleet-storm
configuration must give the same fingerprint on one thread as on two; and a
run under an interpreter override must refuse to measure.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, *extra, env=None, trace=0, seed=5):
    """Runs run.py; returns (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    if last is not None and "correct" not in last:
        last = None
    return done.returncode, last


def cpu_kernel(iterations):
    """wl_cpu (src/guest/workloads.cpp), transcribed apart from the harness."""
    m = 0xFFFFFFFF
    s1 = 0x12345678
    for i in range(iterations):
        t1 = (i + s1) & m
        s1 ^= (t1 * t1) & m
        s1 ^= s1 >> 13
        s1 = (s1 + (s1 << 7)) & m
        s1 = (s1 + 17) & m if i & 1 else s1 ^ 0x5A5A
        for _ in range(16):
            s1 ^= i  # buf1 is never written: each copied word is 0 + i.
        s1 ^= (s1 << 3) & m
        s1 = (s1 + (s1 >> 5)) & m
    return s1


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cmake_dir = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_cpu_kernel_reference(self):
        # The guest reports this checksum for 1000 iterations
        # (`hbft_cli run --workload=cpu`).
        self.assertEqual(cpu_kernel(1000), 31551151)

    def test_clean_traced_runs_pass(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)
                path = os.path.join(run.build_dir(), "spans", "%s-seed5.json" % w)
                with open(path) as f:
                    spans = json.load(f)
                by_id = {s["id"]: s for s in spans}
                self.assertTrue(any(s["parent"] >= 0 for s in spans))
                for s in spans:
                    self.assertLessEqual(s["start_s"], s["end_s"])
                    if s["parent"] >= 0:
                        p = by_id[s["parent"]]
                        self.assertLessEqual(p["start_s"], s["start_s"])
                        self.assertLessEqual(s["end_s"], p["end_s"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        code, result = bench("cpu-epoch1k")
        self.assertEqual(code, 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec["end_to_end"]})

    def test_wrong_checksum_fails(self):
        for w in ("cpu-epoch1k", "echo-repair", "fleet-storm"):
            with self.subTest(workload=w):
                code, result = bench(w, "--corrupt", "checksum")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])

    def test_wrong_payload_fails(self):
        code, result = bench("echo-repair", "--corrupt", "payload")
        self.assertNotEqual(code, 0)
        self.assertGreater(result["failed"], 0)
        code, result = bench("serve-echo", "--corrupt", "payload")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_fleet_fingerprint_matches_one_thread(self):
        done = subprocess.run(
            [os.path.join(self.cmake_dir, "hbft_bench"), "--check-fleet-threads", "--seed=5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_refuses_interpreter_override(self):
        env = dict(os.environ, HBFT_INTERP="cached")
        code, result = bench("cpu-epoch1k", env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
