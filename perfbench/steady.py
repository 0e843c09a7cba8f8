#!/usr/bin/env python3
"""Steadiness self-check: repeat one workload and report each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py --runs times, each with its own seed, and prints
for every metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, next to the bound BENCHMARK.json
fixes for it. A spread above a third of its bound is flagged; setup_s
is exempt from the spread rule (only its median is compared run set to
run set). Exits nonzero when a run fails or an end-to-end spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench, {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout, wall


def main():
    bench, bounds = load_bounds()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        rc, result, stdout, wall = run_once(args.workload, seed, args.seconds,
                                      args.trace)
        if rc != 0 or not result or not result.get("correct"):
            sys.stderr.write(stdout)
            print("run with seed %d failed (exit %d)" % (seed, rc))
            ok = False
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d (%.1f s): %s" % (seed, wall, ", ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-26s %5s %14s %14s %14s %9s %7s" % (
        "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  above bound/3"
        print("%-26s %5d %14.6g %14.6g %14.6g %9.4f %7s%s" % (
            name, len(vals), med, q1, q3, spread,
            "" if bound is None else "%.3g" % bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
