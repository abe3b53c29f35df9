#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/tests/test_perfbench.py

Runs every workload of BENCHMARK.json through perfbench/run.py for a
fraction of a second (building first if needed) and checks that:

- the last stdout line is the result object with exactly the keys
  correct / attempted / failed / metrics, and the outputs are correct;
- --trace 0 emits exactly the end_to_end metrics of BENCHMARK.json, and
  --trace 1 exactly the per_layer ones, each with the unit listed there;
- two back-to-back runs of one seed, and the traced run, agree on every
  simulated value and count (the "# digest" line);
- a pinned HARMONIA_* switch makes the binary refuse to run, and run.py
  clears it for the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# --seconds per workload: runs of a few seconds whose op counts (seconds
# x the nominal rate in src/main.cc) reach each workload's interesting
# phases: fleet_churn's death window, hub poll (step 17) and checkpoint
# (step 42) in 45 steps, l4lb_imix's first pin probe at burst 512.
TINY_SECONDS = {"fleet_churn": 1.4, "cmd_mix": 0.0715, "l4lb_imix": 0.28}
SEED = 11


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=SEED, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           str(seed), "--seconds", str(TINY_SECONDS[workload]), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          check=False)
    return proc


def digest(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("# digest ")]
    return lines[-1] if lines else None


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.results = {}
        for w in cls.bench["workloads"]:
            name = w["name"]
            cls.results[name] = {
                "plain": run(name, 0),
                "again": run(name, 0),
                "traced": run(name, 1),
            }

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(last),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertIs(last["correct"], True, proc.stdout)
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        return last

    def check_names(self, metrics, spec):
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in metrics.items()}
        self.assertEqual(got, want)
        for k, v in metrics.items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end_metrics_match_benchmark_json(self):
        for name, runs in self.results.items():
            with self.subTest(workload=name):
                last = self.result(runs["plain"])
                self.check_names(last["metrics"],
                                 self.bench["end_to_end"])
                for m in self.bench["end_to_end"]:
                    self.assertNotEqual(last["metrics"][m["name"]]["value"],
                                        0, m["name"])

    def test_per_layer_metrics_match_benchmark_json(self):
        for name, runs in self.results.items():
            with self.subTest(workload=name):
                last = self.result(runs["traced"])
                self.check_names(last["metrics"], self.bench["per_layer"])

    def test_simulated_values_repeat_exactly(self):
        for name, runs in self.results.items():
            with self.subTest(workload=name):
                first = digest(runs["plain"].stdout)
                self.assertIsNotNone(first)
                self.assertEqual(first, digest(runs["again"].stdout))
                self.assertEqual(first, digest(runs["traced"].stdout))
                a = self.result(runs["plain"])["metrics"]
                b = self.result(runs["again"])["metrics"]
                self.assertEqual(a["sim_ns_per_op"], b["sim_ns_per_op"])
                self.assertEqual(a["ok_op_frac"], b["ok_op_frac"])

    def test_pinned_environment(self):
        binary = os.path.join(
            os.path.abspath(os.path.join(
                ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")),
            "perfbench")
        env = dict(os.environ, HARMONIA_SIM_THREADS="4")
        direct = subprocess.run(
            [binary, "--workload", "cmd_mix", "--seed", "1", "--seconds", "0.001",
             "--trace", "0"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, check=False)
        self.assertNotEqual(direct.returncode, 0)
        self.assertIn("HARMONIA_SIM_THREADS", direct.stderr)
        via = run("cmd_mix", 0, env=env)
        self.assertIn("# cleared HARMONIA_SIM_THREADS", via.stdout)
        self.result(via)


if __name__ == "__main__":
    unittest.main()
