#!/usr/bin/env python3
"""Steadiness report for the HAP benchmark.

    python3 perfbench/steady.py [--rounds 10] [--seconds S] [--seed-base N]
                                [--workloads a,b] [--out results.json]

Runs every workload once per round, round-robin, each round with its own
seed, so a slow episode of the host lands on all workloads alike; each
run checks its outputs and prints every end-to-end metric with its unit
(--rounds 1 is one pass over all workloads). Then,
for each workload and end-to-end metric, it prints the median, quartiles
and range of the rounds, the spread (quartile distance / median) against
the metric's bound from BENCHMARK.json, and whether the second half of
the rounds agrees with the first: its median no worse than the first
half's by more than the bound. Exits 1 when any spread other than
setup_s's exceeds its bound or any second half is worse than its bound
allows, or when a run fails.
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


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, None
    lines = proc.stdout.splitlines()
    pace = [line.split()[3] for line in lines if line.startswith("pace:")]
    return json.loads(lines[-1])["metrics"], pace[0] if pace else "?"


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "perfbench", "steady.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    failures = 0
    for r in range(args.rounds):
        for w in workloads:
            metrics, pace = run_once(w, args.seed_base + r, args.seconds)
            if metrics is None:
                failures += 1
                print("round %d %s: FAILED" % (r, w), flush=True)
                continue
            results[w].append(metrics)
            print("round %d %s: %s; pace %s ms" % (r, w, ", ".join(
                "%s=%.4g %s" % (k, v["value"], v["unit"])
                for k, v in metrics.items()), pace), flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)

    steady = failures == 0
    print("\n%-15s %-17s %11s %11s %11s %11s %11s %7s %6s %8s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread",
        "bound", "halves"))
    for w in workloads:
        runs = results[w]
        if len(runs) < 4:
            continue
        half = len(runs) // 2
        for m in spec["end_to_end"]:
            values = [run[m["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            drift = worse_by(statistics.median(values[:half]),
                             statistics.median(values[half:]), m["better"])
            spread_ok = m["name"] == "setup_s" or spread <= m["bound"]
            halves_ok = drift <= m["bound"]
            steady = steady and spread_ok and halves_ok
            print("%-15s %-17s %11.5g %11.5g %11.5g %11.5g %11.5g %6.1f%%%s"
                  " %5.0f%% %+7.1f%%%s" % (
                      w, m["name"], median, q1, q3, min(values), max(values),
                      100 * spread, "" if spread_ok else "!",
                      100 * m["bound"], 100 * drift,
                      "" if halves_ok else "!"))
    print("\n%s (%d failed runs); raw results in %s" % (
        "steady" if steady else "NOT steady", failures, args.out))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
