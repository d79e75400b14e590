"""Tests of perfbench/benchlib.py: result schema, quartiles, verdicts."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import benchlib  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "cache.hits", "unit": "count", "better": "higher"}],
}


def result(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


class ValidateResultTest(unittest.TestCase):
    def test_accepts_declared_metrics(self):
        r = result(latency_ms=(1.5, "ms"), ops_per_s=(100.0, "1/s"))
        self.assertEqual(benchlib.validate_result(r, SPEC, trace=False), [])
        traced = result(**{"cache.hits": (3, "count")})
        self.assertEqual(benchlib.validate_result(traced, SPEC, trace=True), [])

    def test_rejects_missing_extra_and_wrong_units(self):
        r = result(latency_ms=(1.5, "s"), other=(1, "count"))
        problems = " ".join(benchlib.validate_result(r, SPEC, trace=False))
        self.assertIn("missing metrics: ops_per_s", problems)
        self.assertIn("undeclared metrics: other", problems)
        self.assertIn("unit 's', want 'ms'", problems)

    def test_rejects_bad_top_level(self):
        r = result(latency_ms=(1.5, "ms"), ops_per_s=(1.0, "1/s"))
        r["extra"] = 1
        self.assertTrue(benchlib.validate_result(r, SPEC, trace=False))
        r = result(latency_ms=(1.5, "ms"), ops_per_s=(1.0, "1/s"))
        r["attempted"] = 0
        self.assertIn("attempted is below 1", benchlib.validate_result(r, SPEC, False))
        r["attempted"] = 2.5
        self.assertTrue(benchlib.validate_result(r, SPEC, False))
        r = result(latency_ms=(float("nan"), "ms"), ops_per_s=(1.0, "1/s"))
        self.assertIn("latency_ms: value is not a finite number",
                      benchlib.validate_result(r, SPEC, False))

    def test_per_layer_defaults_fill_unrun_layers_only(self):
        filled = benchlib.with_per_layer_defaults({}, SPEC)
        self.assertEqual(filled, {"cache.hits": {"value": 0, "unit": "count"}})
        emitted = {"cache.hits": {"value": 7, "unit": "count"},
                   "other": {"value": 1, "unit": "count"}}
        filled = benchlib.with_per_layer_defaults(emitted, SPEC)
        self.assertEqual(filled["cache.hits"]["value"], 7)
        self.assertIn("undeclared metrics: other",
                      benchlib.validate_result(
                          {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": filled}, SPEC, trace=True))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / med)

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(benchlib.spread([4.0]), 0)


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_improved_needs_wins_and_margin(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(benchlib.win_rate(self.parent, change, "lower"), 1.0)
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1),
                         benchlib.IMPROVED)
        # Higher-is-better metrics win in the other direction.
        self.assertEqual(benchlib.verdict(self.parent, change, "higher", 0.1),
                         benchlib.WORSE)

    def test_too_few_pairs_is_not_a_gain(self):
        change = [v * 0.8 for v in self.parent[:5]]
        self.assertEqual(benchlib.verdict(self.parent[:5], change, "lower", 0.1),
                         benchlib.NO_WORSE)

    def test_small_change_is_no_worse(self):
        change = [v * 1.02 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1),
                         benchlib.NO_WORSE)

    def test_beyond_bound_is_worse(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, "lower", 0.1),
                         benchlib.WORSE)

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = [v * 1.01 for v in noisy]
        self.assertEqual(benchlib.verdict(noisy, change, "lower", 0.1),
                         benchlib.UNRESOLVED)
        # Unless every change run beats every parent run.
        self.assertEqual(benchlib.verdict(noisy, [v / 4 for v in noisy[:3]], "lower", 0.1),
                         benchlib.NO_WORSE)

    def test_ties_count_for_neither_side(self):
        self.assertEqual(benchlib.win_rate([1, 2, 3, 4], [1, 1, 3, 5], "lower"), 0.25)


if __name__ == "__main__":
    unittest.main()
