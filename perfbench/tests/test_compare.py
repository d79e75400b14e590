"""Tests of perfbench/compare.py over synthetic run directories."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "scan", "why": "t"}, {"name": "allocate", "why": "t"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [],
}


def write_runs(directory, workload, rows):
    with open(os.path.join(directory, workload + ".jsonl"), "w") as f:
        for latency, ops in rows:
            f.write(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
                "latency_ms": {"value": latency, "unit": "ms"},
                "ops_per_s": {"value": ops, "unit": "1/s"}}}) + "\n")


class CompareTest(unittest.TestCase):
    def test_one_row_per_workload_and_metric(self):
        with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
            base = [(10.0 + 0.05 * i, 100.0 - 0.1 * i) for i in range(10)]
            write_runs(parent, "scan", base)
            write_runs(change, "scan", [(l * 0.7, o * 1.001) for l, o in base])
            write_runs(parent, "allocate", base)
            write_runs(change, "allocate", [(l * 1.3, o) for l, o in base])
            rows = compare.compare(SPEC, parent, change)
            got = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
            self.assertEqual(got, {
                ("scan", "latency_ms"): benchlib.IMPROVED,
                ("scan", "ops_per_s"): benchlib.NO_WORSE,
                ("allocate", "latency_ms"): benchlib.WORSE,
                ("allocate", "ops_per_s"): benchlib.NO_WORSE,
            })
            scan_latency = rows[0]
            self.assertEqual(scan_latency["pairs"], 10)
            self.assertEqual(scan_latency["win_rate"], 1.0)
            lines = compare.format_rows(rows)
            self.assertEqual(len(lines), 5)
            self.assertIn("improved", lines[1])

    def test_workload_missing_on_one_side_is_skipped(self):
        with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
            write_runs(parent, "scan", [(1.0, 1.0)] * 3)
            self.assertEqual(compare.compare(SPEC, parent, change), [])


if __name__ == "__main__":
    unittest.main()
