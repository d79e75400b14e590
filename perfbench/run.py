#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload allocate|scan|serve_mixed \\
        --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build) on first use, runs it, checks its result line against
BENCHMARK.json, and prints two lines: the details (host fingerprint, input
sizes, sample counts, tail percentiles) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1)
prints the per-layer metrics and writes its spans to
.bench_out/trace-<workload>-<seed>.json.

Exit status: the driver's (0 only when every correctness check passed),
or non-zero without a result line when the build or the result is broken.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("allocate", "scan", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the driver; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_driver")


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (an exported source tree inside another repository included)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 and head.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--facts", type=int, default=None,
                        help="dataset size (default: the benchmark's 200000)")
    parser.add_argument("--inject", default=None,
                        help="test hook: feed the named correctness check a wrong answer")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = "BENCHMARK.json"
    if not os.path.exists(spec_path):
        log("run from the root of the checkout (BENCHMARK.json not found)")
        return 2
    spec = benchlib.load_spec(spec_path)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(build_root)
    if driver is None:
        log("build failed")
        return 3

    work_root = os.path.join(".bench_work", "run-%d" % os.getpid())
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-root", work_root]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_out", "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.facts is not None:
        cmd += ["--facts", str(args.facts)]
    if args.inject:
        cmd += ["--inject", args.inject]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 5
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log("driver failed (exit %d)" % proc.returncode)
        return proc.returncode or 4
    try:
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        log("unreadable driver output: %s" % e)
        return 4
    if args.trace and isinstance(result.get("metrics"), dict):
        result["metrics"] = benchlib.with_per_layer_defaults(result["metrics"], spec)
    problems = benchlib.validate_result(result, spec, bool(args.trace))
    if problems:
        for p in problems:
            log("result schema: %s" % p)
        return 4

    details["git_commit"] = git_commit()
    details["python_cpu_count"] = os.cpu_count()
    details["run_wall_s"] = time.monotonic() - started
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log("correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
