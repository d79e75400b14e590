#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds <workload>.jsonl files of result lines, one run per
line (perfbench/collect.py writes them). Runs are paired by line order, so
collect the two sides alternately with the same seeds. For every workload
and end-to-end metric it prints one row: each side's median and quartiles,
the share of pairs the change wins, and a verdict -- improved, no worse,
worse or unresolved -- by the rules in benchlib.verdict: a gain needs at
least ten pairs, nine in ten won, and a median difference larger than the
parent's own inter-quartile distance; "no worse" needs the change's median
within the metric's bound of the parent's and both sides' spread within the
bound. Exits 1 when any row is worse.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
from collect import read_results  # noqa: E402


def compare(spec, parent_dir, change_dir):
    """Rows (dicts) of the comparison, one per workload x end-to-end metric
    that both sides measured."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        parent = read_results(os.path.join(parent_dir, workload + ".jsonl"))
        change = read_results(os.path.join(change_dir, workload + ".jsonl"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not p or not c:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": benchlib.quartiles(p),
                "change": benchlib.quartiles(c),
                "pairs": min(len(p), len(c)),
                "win_rate": benchlib.win_rate(p, c, metric["better"]),
                "verdict": benchlib.verdict(p, c, metric["better"], metric["bound"]),
            })
    return rows


def format_rows(rows):
    header = "%-12s %-20s %-8s %-34s %-34s %5s %5s  %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "pairs", "wins", "verdict")
    out = [header]
    for r in rows:
        side = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])  # noqa: E731
        out.append("%-12s %-20s %-8s %-34s %-34s %5d %5.2f  %s" % (
            r["workload"], r["metric"], r["unit"], side(r["parent"]),
            side(r["change"]), r["pairs"], r["win_rate"], r["verdict"]))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    rows = compare(benchlib.load_spec(args.spec), args.parent_dir, args.change_dir)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    for line in format_rows(rows):
        print(line)
    return 1 if any(r["verdict"] == benchlib.WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
