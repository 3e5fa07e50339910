#!/usr/bin/env python3
"""Steadiness runner: repeat each workload with different seeds and summarize.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --runs 10 [--workloads bfs-rmat,sssp-grid]
                                [--seconds S] [--trace 0] [--first-seed 1]
                                [--sets 1]

Runs perfbench/run.py once per (workload, seed), seeds first-seed ..
first-seed + runs - 1, one run at a time, and prints for every metric the
median, quartiles (statistics.quantiles, n=4), min and max of the values,
and the interquartile spread as a share of the median.  When BENCHMARK.json
is present, each end-to-end metric's bound is shown beside its spread, and
a spread above a third of the bound is flagged; --seconds and --workloads
default to its run_seconds and workloads.  With --sets 2 or more, every
workload's seeds are run again after all workloads finished, and each later
set's median is compared with the first set's: a shift for the worse beyond
the bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("bfs-rmat", "msbfs-w64", "sssp-grid")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except OSError:
        return {}


def run_set(workload, seeds, seconds, trace):
    """Runs one workload once per seed; returns values and units per metric."""
    values, units = {}, {}
    failed = attempted = 0
    for seed in seeds:
        result = one_run(workload, seed, seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"# {workload} seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)
    return values, units, failed, attempted


def summarize(workload, label, values, units, failed, attempted, limits,
              first_medians):
    """Prints one set's table; returns its medians by metric."""
    runs = len(next(iter(values.values())))
    print(f"\n{workload} {label}: {runs} runs, {failed}/{attempted} ops failed")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'shift':>8} {'bound':>6}"
          "  unit")
    medians = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = med
        spread = (q3 - q1) / abs(med) if med else float("nan")
        shift = float("nan")
        if first_medians and first_medians.get(name):
            shift = med / first_medians[name] - 1
        bound = limits.get(name)
        flags = []
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flags.append("spread above bound/3")
        worse = -shift if name.endswith("gteps") else shift
        if bound is not None and worse > bound:
            flags.append("shift beyond bound")
        bound_text = f"{bound:6.3f}" if bound is not None else f"{'-':>6}"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(vals):12.6g} {max(vals):12.6g} {spread:8.4f} "
              f"{shift:8.4f} {bound_text}  {units[name]}"
              + (f"  <-- {', '.join(flags)}" if flags else ""), flush=True)
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = load_spec()
    limits = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 10)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec.get("workloads", [])] or WORKLOADS)
    seeds = range(args.first_seed, args.first_seed + args.runs)
    first = {}
    for s in range(args.sets):
        for workload in workloads:
            values, units, failed, attempted = run_set(workload, seeds,
                                                       seconds, args.trace)
            medians = summarize(workload, f"set {s + 1}", values, units,
                                failed, attempted, limits, first.get(workload))
            first.setdefault(workload, medians)
            print()


if __name__ == "__main__":
    main()
