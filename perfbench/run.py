#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py spread --workload NAME [--runs N] [--first-seed N] [--seconds S]

The build (cargo, offline, release profile) writes to $CARGO_TARGET_DIR,
or to perfbench/target when it is unset; its output goes to stderr. The
benchmark's stdout ends with the one-line JSON result. Exits non-zero,
printing no result, when the build or the run fails.

`spread` runs the benchmark --runs times (default 10) with consecutive
seeds and holds every end-to-end metric of BENCHMARK.json to its bound:
the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)), as a share of their median. It
exits 1 if a spread exceeds its bound or an operation failed. Beside
them it prints, ungated, the spread of the same times in wall seconds
and of the host clock's kernel (the report's WALL_FIELDS), which shows
how much of the host's drift the reference seconds remove.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Generous per-run ceiling; a run normally ends within its --seconds
# budget.
RUN_TIMEOUT_S = 170
# One malloc arena: otherwise each of the daemon's worker threads lands
# on one of glibc's per-thread arenas at random, and peak memory moves
# by up to 12% from run to run with nothing else changed.
RUN_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")
# Report fields whose medians `spread` shows beside the metrics.
WALL_FIELDS = ["setup_wall_s", "op_wall_s", "host_tick_s"]


def build():
    """Builds the benchmark; returns its executable, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


def spreads(series, bounds):
    """Per metric: (median, q1, q3, spread, bound, within bound)."""
    out = {}
    for name, values in series.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        out[name] = (med, q1, q3, spread, bounds[name], spread <= bounds[name])
    return out


def spread(exe, argv):
    parser = argparse.ArgumentParser(prog="run.py spread")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", default=None)
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    series = {name: [] for name in bounds}
    walls = {name: [] for name in WALL_FIELDS}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [exe, "--workload", args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds is not None:
            cmd += ["--seconds", args.seconds]
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=RUN_ENV
        )
        if done.returncode != 0:
            sys.stderr.write("run.py: seed %d: the benchmark exited %d\n" % (seed, done.returncode))
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        failed += result["failed"]
        row = ["seed %3d:" % seed]
        for name in series:
            series[name].append(result["metrics"][name]["value"])
            row.append("%s=%.6g" % (name, series[name][-1]))
        for name in walls:
            walls[name].append(report[name]["median"])
            row.append("%s=%.6g" % (name, walls[name][-1]))
        print(" ".join(row), flush=True)
    verdicts = spreads(series, bounds)
    print("%-14s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, (med, q1, q3, sp, bound, ok) in verdicts.items():
        mark = "FAIL" if not ok else ("steady" if sp <= bound / 3 else "ok")
        print("%-14s %12.6g %12.6g %12.6g %8.4f %7.3f %s" % (name, med, q1, q3, sp, bound, mark))
    for name, (med, q1, q3, sp, _, _) in spreads(walls, {n: 0 for n in walls}).items():
        print("%-14s %12.6g %12.6g %12.6g %8.4f    (not gated)" % (name, med, q1, q3, sp))
    print("failed ops over all runs: %d" % failed)
    return 0 if failed == 0 and all(v[-1] for v in verdicts.values()) else 1


def main():
    exe = build()
    if exe is None:
        return 1
    if sys.argv[1:2] == ["spread"]:
        return spread(exe, sys.argv[2:])
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S, env=RUN_ENV)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
