"""Alternating benchmark pairs between two checkouts of corrcolor.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

Each pair runs the benchmark command of ``BENCHMARK.json`` (with
``--workload W --seed K --seconds S --trace 0``) once in each checkout,
PARENT first in odd pairs and CHANGE first in even ones, both on the
seed K = 99 + k in pair k (counting from 1).  For every end-to-end
metric of ``BENCHMARK.json`` it prints both sides' medians, the parent's
interquartile range, the pairs in which the change reads better, and
whether the change's median stays within the metric's bound: no worse
than the parent's median by more than ``bound`` times it.  Quartiles are
``numpy.percentile`` (linear).  The exit code is 1 if a metric leaves its
bound or a run reports a failed check, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def run_once(tree: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON of its last output line."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    change_median = float(np.median(change))
    worse = (change_median - median) if lower else (median - change_median)
    return {"parent_median": float(median), "change_median": change_median,
            "parent_iqr": float(q3 - q1),
            "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            "within_bound": worse <= spec["bound"] * abs(median)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        seed = 99 + k
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), bench["command"], args.workload,
                                       seed, args.seconds))
        print(f"pair {k}/{args.pairs} seed {seed}: {order[0]} first", file=sys.stderr)

    ok = True
    print(f"{args.workload}, {args.pairs} pair(s) of {args.seconds:g} s")
    print(f"  {'metric':<20} {'parent':>12} {'change':>12} {'rel':>8} {'parent IQR':>12} "
          f"{'wins':>6}  bound")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        s = summarize(spec, *([run["metrics"][name]["value"] for run in runs[side]]
                              for side in ("parent", "change")))
        ok &= s["within_bound"]
        rel = s["change_median"] / s["parent_median"] - 1.0
        print(f"  {name:<20} {s['parent_median']:>12.6g} {s['change_median']:>12.6g} "
              f"{rel:>+8.1%} {s['parent_iqr']:>12.4g} {s['change_wins']:>3}/{args.pairs:<2}  "
              f"{'within' if s['within_bound'] else 'OUTSIDE'} {spec['bound']:.0%}")
    for side, side_runs in runs.items():
        failed = sum(run["failed"] for run in side_runs)
        attempted = sum(run["attempted"] for run in side_runs)
        ok &= failed == 0
        print(f"  failed_frac {side}: {failed / attempted:.3g} ({failed} of {attempted} checks)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
