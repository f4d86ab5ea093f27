#!/usr/bin/env python3
"""Paired comparison of two source trees on the aspen benchmark.

    python3 perfbench/compare.py BASE_TREE HEAD_TREE [--pairs 10]

Each tree is a checkout holding perfbench/ and src/. For every pair i and
every workload of BASE_TREE's BENCHMARK.json, both trees run
`perfbench/run.py --seed i --seconds <run_seconds> --trace 0`, alternating
which side runs first. For each workload and end-to-end metric the report
gives each side's median and quartiles, the share of pairs the head wins
(ties count for neither side) and a verdict:

  gain        head wins at least 90% of pairs and the medians differ by more
              than the base's own quartile spread
  regression  head's median is worse than base's by more than the metric's
              bound from BENCHMARK.json
  unresolved  either side's quartile spread is wider than the bound, and
              not every head run beats (or loses to) every base run
  same        none of the above

It also reports each side's failed/attempted operations per run (the
distinct values seen): a gain does not count when the head fails more
operations than the base.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"compare: {tree}: {workload} seed {seed} failed:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    share = wins / len(base)
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    all_worse = max(sign * h for h in head) < min(sign * b for b in base)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (h3 - h1) / abs(hm) if hm else 0.0)
    if share >= 0.9 and sign * (hm - bm) > (b3 - b1):
        v = "gain"
    elif sign * (bm - hm) > bound * abs(bm) and (spread <= bound or all_worse):
        v = "regression"
    elif spread > bound and not (all_better or all_worse):
        v = "unresolved"
    else:
        v = "same"
    return (b1, bm, b3), (h1, hm, h3), share, v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 10:
        sys.exit("compare: at least 10 pairs are needed")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"base": [], "head": []} for w in workloads}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                tree = args.base if side == "base" else args.head
                results[w][side].append(run(tree, w, i, seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':15s} {'metric':14s} {'base median [q1, q3]':>30s} "
          f"{'head median [q1, q3]':>30s} {'change':>8s} {'won':>5s}  verdict")
    for w in workloads:
        for side in ("base", "head"):
            counts = sorted({(r["failed"], r["attempted"])
                             for r in results[w][side]})
            shown = ", ".join(f"{f} of {a}" for f, a in counts)
            print(f"{w:15s} {side}: {shown} operations failed per run")
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"]
                           for r in results[w][side]]
                    for side in ("base", "head")}
            b, h, share, v = verdict(vals["base"], vals["head"], m["better"],
                                     m["bound"])
            change = 100.0 * (h[1] / b[1] - 1.0) if b[1] else 0.0
            print(f"{w:15s} {m['name']:14s} {fmt(b):>30s} {fmt(h):>30s} "
                  f"{change:+7.1f}% {100 * share:4.0f}%  {v}")


if __name__ == "__main__":
    main()
