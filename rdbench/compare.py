#!/usr/bin/env python3
"""Collects rdbench result sets and compares two of them.

    python3 rdbench/compare.py collect OUT.jsonl [--runs 10] [--first-seed 1]
                                       [--workloads W,...] [--trace]
    python3 rdbench/compare.py compare A.jsonl B.jsonl

Run from the repository root.  `collect` runs rdbench/run.py once per
workload and seed (seeds first-seed, first-seed + 1, ...) and appends one
JSON line per run: {"workload", "seed", "correct", "attempted", "failed",
"metrics"}.

`compare` prints one row per workload x metric with each side's median and
quartiles (statistics.quantiles, n=4).  Spread is the quartile distance as
a share of the median.  Against the bounds in BENCHMARK.json a metric is
  regression   B's median worse than A's by more than the bound
  unresolved   either side's spread exceeds the bound, unless every run of
               B is better than every run of A (then: better)
  better/ok    otherwise, by the direction of the median change.
A workload whose B runs fail more operations than A's, or fail a
correctness check, is a regression too.  Exit 1 on any regression, else 0.
Per-layer metrics (traced result sets) have no bound and are only printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args, spec):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "1" if args.trace else "0"]
                run = subprocess.run(command, stdout=subprocess.PIPE,
                                     text=True)
                lines = run.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print("%s seed %d: no result (exit %d)" %
                          (workload, seed, run.returncode), file=sys.stderr)
                    return 1
                result = {"workload": workload, "seed": seed, **result}
                out.write(json.dumps(result) + "\n")
                out.flush()
                print("%s seed %d: %s" % (workload, seed, "ok" if
                      result["correct"] else "INCORRECT"), file=sys.stderr)
    return 0


def read_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run)
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def verdict(a, b, bound, lower_is_better):
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    worse = (med_b - med_a) if lower_is_better else (med_a - med_b)
    if med_a and worse / abs(med_a) > bound:
        return "regression"
    if max(spread_a, spread_b) > bound:
        all_better = (max(b) < min(a)) if lower_is_better else \
            (min(b) > max(a))
        return "better" if all_better else "unresolved"
    return "better" if worse < 0 else "ok"


def compare(args, spec):
    side_a, side_b = read_set(args.a), read_set(args.b)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    regressions = 0
    header = "%-14s %-30s %12s %25s %12s %25s %8s %6s  %s" % (
        "workload", "metric", "median A", "Q1..Q3 A", "median B",
        "Q1..Q3 B", "change", "bound", "verdict")
    print(header)
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        failed_a = sum(r["failed"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b)
        if failed_b > failed_a or not all(r["correct"] for r in runs_b):
            regressions += 1
            print("%-14s failed operations %d -> %d, incorrect runs in B: %d"
                  " -> regression" % (workload, failed_a, failed_b,
                                      sum(not r["correct"] for r in runs_b)))
        names = [n for n in list(bounded) + list(layers)
                 if n in runs_a[0]["metrics"] and n in runs_b[0]["metrics"]]
        for name in names:
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            med_a, q1_a, q3_a, _ = summary(a)
            med_b, q1_b, q3_b, _ = summary(b)
            change = (med_b - med_a) / abs(med_a) if med_a else 0.0
            metric = bounded.get(name) or layers[name]
            if name in bounded:
                result = verdict(a, b, metric["bound"],
                                 metric["better"] == "lower")
                bound = "%.3f" % metric["bound"]
            else:
                result, bound = "-", "-"
            regressions += result == "regression"
            print("%-14s %-30s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g"
                  " %+7.1f%% %6s  %s" % (workload, name, med_a, q1_a, q3_a,
                                         med_b, q1_b, q3_b, 100 * change,
                                         bound, result))
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads")
    c.add_argument("--trace", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    spec = load_spec()
    return collect(args, spec) if args.mode == "collect" else \
        compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
