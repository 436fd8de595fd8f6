#!/usr/bin/env python3
"""Builds rdbench from source and runs one workload.

    python3 rdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
library and the rdbench binary into .bench_build/ (CMake, Release); later
runs only check the build is current.  Build output goes to stderr.  The
binary's `name value unit` lines pass through to stdout, and the last line is
the result JSON {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer one
(--trace 1; a layer the workload does not exercise reads 0).  A traced run
also leaves its spans in .bench_build/traces/.

Exit status: 0 when every correctness check passed, 1 otherwise (including
a failed build), 2 on bad arguments.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rdbench; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    step = ["cmake", "--build", BUILD, "--target", "rdbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "rdbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def complete(result, trace):
    """Checks the binary's metrics against BENCHMARK.json.  Per-layer
    metrics a workload does not produce read 0; anything undeclared, or a
    missing end-to-end metric, is an error."""
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        log("undeclared metrics:", ", ".join(unknown))
        return False
    for m in declared:
        if m["name"] in metrics:
            if metrics[m["name"]]["unit"] != m["unit"]:
                log("unit mismatch for", m["name"])
                return False
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log("missing end-to-end metric", m["name"])
            return False
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("rdbench exceeded %d s" % TIMEOUT_S)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("rdbench exited %d without a result" % run.returncode)
        return 1
    if not complete(result, bool(args.trace)):
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
