#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result.

    python3 perfbench/collect.py --out DIR [--workloads scan,allocate]
        [--seeds 1-10] [--seconds S] [--report-only]

Appends each run's result line to DIR/<workload>.jsonl (its details line to
DIR/<workload>.details.jsonl) and prints, per workload and end-to-end
metric, the median and the inter-quartile spread as a share of the median
next to the metric's bound. Two such directories, one per commit, are what
perfbench/compare.py compares. Run from the root of the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def read_results(path):
    """Result objects of one <workload>.jsonl file."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def spread_table(spec, out_dir, workloads):
    rows = []
    for workload in workloads:
        results = read_results(os.path.join(out_dir, workload + ".jsonl"))
        if len(results) < 2:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            _, median, _ = benchlib.quartiles(values)
            s = benchlib.spread(values)
            flag = "" if s <= metric["bound"] / 3 else (
                "  above bound/3" if s <= metric["bound"] else "  ABOVE BOUND")
            rows.append("%-12s %-22s n=%-3d median=%-14.6g spread=%.4f bound=%.2f%s" % (
                workload, metric["name"], len(values), median, s, metric["bound"], flag))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--report-only", action="store_true",
                        help="print the spread table of DIR without running")
    args = parser.parse_args()

    spec = benchlib.load_spec("BENCHMARK.json")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    if not args.report_only:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    failures += 1
                    print("%s seed %d: exit %d" % (workload, seed, proc.returncode),
                          file=sys.stderr)
                    continue
                with open(os.path.join(args.out, workload + ".jsonl"), "a") as f:
                    f.write(lines[-1] + "\n")
                with open(os.path.join(args.out, workload + ".details.jsonl"), "a") as f:
                    f.write(lines[-2] + "\n")
                print("%s seed %d: ok" % (workload, seed), file=sys.stderr, flush=True)
    for row in spread_table(spec, args.out, workloads):
        print(row)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
