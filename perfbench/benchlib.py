"""Shared helpers of the benchmark scripts: the metric spec in
BENCHMARK.json, result-line validation, quartiles and the verdict rules
used to compare two sets of runs."""

import json
import math
import statistics

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

IMPROVED = "improved"
NO_WORSE = "no worse"
WORSE = "worse"
UNRESOLVED = "unresolved"


def load_spec(path):
    """Reads BENCHMARK.json."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """{name: unit} a run must print: end-to-end metrics untraced,
    per-layer metrics traced."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def with_per_layer_defaults(metrics, spec):
    """The traced run's metrics in BENCHMARK.json order, with 0 (and the
    declared unit) for each per-layer metric the driver did not emit: the
    workload does not run that layer. Undeclared metrics are kept, so
    validation still reports them."""
    out = {}
    for m in spec["per_layer"]:
        out[m["name"]] = metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
    for name, entry in metrics.items():
        out.setdefault(name, entry)
    return out


def validate_result(result, spec, trace):
    """Returns a list of problems with one result object (empty if none)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    keys = set(result)
    if keys != set(RESULT_KEYS):
        problems.append("result keys %s, want %s" % (sorted(keys), sorted(RESULT_KEYS)))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append("%s is not a non-negative whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    want = expected_metrics(spec, trace)
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing:
        problems.append("missing metrics: %s" % ", ".join(missing))
    if extra:
        problems.append("undeclared metrics: %s" % ", ".join(extra))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("%s: entry must have exactly value and unit" % name)
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append("%s: value is not a finite number" % name)
        if name in want and entry["unit"] != want[name]:
            problems.append("%s: unit %r, want %r" % (name, entry["unit"], want[name]))
    return problems


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def better(a, b, direction):
    """True when a reads better than b for a metric whose `better` is
    `direction` ("lower" or "higher")."""
    return a < b if direction == "lower" else a > b


def win_rate(parent, change, direction):
    """Share of the pairs (parent[i], change[i]) the change wins; ties
    count for neither side but stay in the denominator."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    return wins / len(pairs)


def verdict(parent, change, direction, bound, min_pairs=10):
    """Classifies one workload x metric comparison.

    improved   -- at least `min_pairs` pairs, the change wins >= 90% of
                  them, and the medians differ (in the better direction)
                  by more than the parent's own inter-quartile distance;
    worse      -- the change's median is worse than the parent's by more
                  than `bound` (a share of the parent's median);
    no worse   -- neither, and the run-to-run spread of both sides is
                  within `bound`, or every change run beats every parent run;
    unresolved -- the spread is wider than `bound`, so "no worse" cannot be
                  shown (unless every change run is worse than every parent
                  run by more than the bound, which is worse).
    """
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = min(len(parent), len(change))
    if (pairs >= min_pairs and win_rate(parent, change, direction) >= 0.9
            and better(c_med, p_med, direction)
            and abs(c_med - p_med) > (p_q3 - p_q1)):
        return IMPROVED
    if direction == "lower":
        worse_by = (c_med - p_med) / abs(p_med) if p_med else math.inf
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    else:
        worse_by = (p_med - c_med) / abs(p_med) if p_med else math.inf
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    if max(spread(parent), spread(change)) > bound:
        if all_better:
            return NO_WORSE
        if all_worse and worse_by > bound:
            return WORSE
        return UNRESOLVED
    if worse_by > bound:
        return WORSE
    return NO_WORSE
