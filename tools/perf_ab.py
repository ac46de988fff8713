#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base revision against the
working tree.

Usage, from the root of a checkout:

    python3 tools/perf_ab.py REV --workload W --pairs N [--seconds S] [--seed K]

Exports REV's committed tree into a temporary directory, then runs
`python3 perfbench/run.py --workload W --seed K --seconds S --trace 0` in
the two trees alternately, N times each: the base first in even pairs,
the working tree first in odd ones, so that host drift over time
falls on both sides alike. For every metric of the run's final JSON line
it prints each side's median and quartiles, the median and range of the
per-pair ratios (change / base) and how many pairs the change won; ties
count for neither side. Which way is better is read from BENCHMARK.json.
A gain is established when the change wins at least nine pairs in ten
and the medians differ by more than the base's interquartile distance.

The script only reads perfbench/ and BENCHMARK.json; each tree builds its
own perfbench/main.exe under its own _build/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT = 900


def export_tree(rev, dest):
    """Write the committed tree of [rev] into [dest] (no .git, no build)."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(tree, args):
    """One benchmark run in [tree]; returns its metrics dict (name -> value)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=RUN_TIMEOUT)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"perf_ab: no result line from {tree} (exit {proc.returncode})")
    if not result.get("correct"):
        sys.exit(f"perf_ab: run in {tree} reported correct=false")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def directions(tree):
    """Metric name -> "lower" | "higher", from the tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def report(base_runs, change_runs, better):
    names = [n for n in base_runs[0] if n in change_runs[0]]
    print(f"{'metric':<20} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio (min-max)':>21} {'won':>6}")
    for name in names:
        b = [r[name] for r in base_runs]
        c = [r[name] for r in change_runs]
        if all(v == 0 for v in b + c):
            continue
        ratios = [cv / bv for bv, cv in zip(b, c) if bv != 0]
        sense = better.get(name)
        if sense == "lower":
            won = sum(cv < bv for bv, cv in zip(b, c))
        elif sense == "higher":
            won = sum(cv > bv for bv, cv in zip(b, c))
        else:
            won = None
        bq1, bq3 = quartiles(b)
        cq1, cq3 = quartiles(c)
        ratio = (f"{statistics.median(ratios):.3f} "
                 f"({min(ratios):.3f}-{max(ratios):.3f})") if ratios else "-"
        won_s = f"{won}/{len(b)}" if won is not None else "-"
        print(f"{name:<20} {statistics.median(b):>12.5g} "
              f"[{bq1:>9.5g}, {bq3:>9.5g}] {statistics.median(c):>12.5g} "
              f"[{cq1:>9.5g}, {cq3:>9.5g}] {ratio:>21} {won_s:>6}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="base revision (e.g. HEAD~1)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("perfbench")):
        print("perf_ab.py: run from the root of a checkout", file=sys.stderr)
        return 2
    change = os.getcwd()
    # a kill still removes the exported tree (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    try:
        base = os.path.join(tmp, "base")
        os.mkdir(base)
        export_tree(args.rev, base)
        better = directions(change)
        base_runs, change_runs = [], []
        for i in range(args.pairs):
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            got = {}
            for side, tree in order:
                got[side] = run_once(tree, args)
            base_runs.append(got["base"])
            change_runs.append(got["change"])
            print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): "
                  f"wall_s base {got['base'].get('wall_s', 0):.3f} "
                  f"change {got['change'].get('wall_s', 0):.3f}", flush=True)
        print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs, "
              f"seed {args.seed}, base {args.rev}")
        report(base_runs, change_runs, better)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
