"""End-to-end tests of the benchmark's correctness checks: a small run of
each workload passes and prints a result that matches BENCHMARK.json, and a
deliberately wrong answer fed to any check makes the run exit non-zero.

Builds the driver on first use (about a minute); runs from the checkout
root."""

import json
import os
import subprocess
import sys
import unittest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ROOT = os.path.abspath(os.path.join(PERFBENCH, ".."))
sys.path.insert(0, PERFBENCH)

import benchlib  # noqa: E402

SMALL = ["--facts", "20000", "--seconds", "2"]

INJECTIONS = {
    "allocate": ["alloc.weights", "alloc.page_ios", "alloc.digest",
                 "alloc.serial_digest"],
    "scan": ["scan.row_col", "scan.oracle"],
    "serve_mixed": ["serve.exact", "serve.bounded", "serve.completions"],
}


def run(workload, *extra, trace=0):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--trace", str(trace)] + SMALL + list(extra)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = benchlib.load_spec(os.path.join(ROOT, "BENCHMARK.json"))

    def test_clean_runs_pass_and_match_the_schema(self):
        for workload in INJECTIONS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    lines = proc.stdout.splitlines()
                    details = json.loads(lines[-2])["details"]
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        benchlib.validate_result(result, self.spec, bool(trace)), [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    for key in ("nproc", "hardware_concurrency", "build_type", "ndebug",
                                "compiler", "git_commit", "seed", "facts"):
                        self.assertIn(key, details)

    def test_wrong_answers_fail_the_run(self):
        for workload, names in INJECTIONS.items():
            for name in names:
                with self.subTest(check=name):
                    proc = run(workload, "--inject", name)
                    self.assertNotEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertIn("check failed", proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
