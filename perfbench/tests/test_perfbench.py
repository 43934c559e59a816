#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of each workload, and a run whose
reference digests were corrupted, which the correctness gate must fail.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root. The first test builds the benchmark (see
perfbench/run.py); each smoke run then takes a few seconds.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
REFERENCE = os.path.join(BENCH, "reference", "suite-digests.txt")


def run(workload, trace=0, reference=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    if reference:
        command += ["--reference", reference]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class SmokeTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def check(self, workload, trace):
        code, result, proc = run(workload, trace)
        self.assertEqual(code, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        return result

    def test_profile_suite(self):
        self.check("profile-suite", 0)

    def test_repo_report(self):
        self.check("repo-report", 0)

    def test_fleet_ingest(self):
        self.check("fleet-ingest", 0)

    def test_traced_runs_repeat_their_counts(self):
        # vm.sim_insts.<m> are counts of a deterministic simulation: two
        # traced runs must agree exactly.
        first = self.check("profile-suite", 1)["metrics"]
        second = self.check("profile-suite", 1)["metrics"]
        for name in first:
            if name.startswith("vm.sim_insts."):
                self.assertGreater(first[name]["value"], 0, name)
                self.assertEqual(first[name], second[name], name)

    def test_traced_fleet_counts_planned_rejects(self):
        metrics = self.check("fleet-ingest", 1)["metrics"]
        self.assertGreater(metrics["collectd.accepted"]["value"], 0)
        self.assertGreater(metrics["collectd.rejected.corrupt"]["value"], 0)
        self.assertEqual(metrics["collectd.rejected.merge-failed"]["value"], 0)


class GateTest(unittest.TestCase):
    def test_corrupted_reference_fails_the_gate(self):
        with open(REFERENCE) as f:
            lines = f.read().splitlines()
        # Flip one hex digit of the first scale-1 digest.
        for index, line in enumerate(lines):
            fields = line.split()
            if not line.startswith("#") and fields[1] == "1":
                digest = fields[3]
                fields[3] = ("1" if digest[0] != "1" else "2") + digest[1:]
                lines[index] = " ".join(fields)
                break
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("\n".join(lines) + "\n")
            bad = f.name
        try:
            code, result, proc = run("profile-suite", reference=bad)
        finally:
            os.unlink(bad)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("MISMATCH: digest mismatch", proc.stdout)


if __name__ == "__main__":
    unittest.main()
