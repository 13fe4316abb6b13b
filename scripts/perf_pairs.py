#!/usr/bin/env python3
"""Run perfbench in alternating pairs: a parent checkout against a change.

Usage:
    perf_pairs.py PARENT_DIR CHANGE_DIR [--workloads lookup_1m,spatial_2d_128k]
                  [--pairs 10] [--seconds 15] [--first-seed 11]
                  [--parent-target DIR] [--change-target DIR]

Each checkout runs its own `perfbench/run.py --trace 0` from its root, with
CARGO_TARGET_DIR set to a build directory of its own (by default
.bench_build inside the checkout), so each side builds and runs the code it
holds. Pair i runs seed first-seed + i on both sides; the parent goes first
in even pairs and the change in odd ones, so a drift of the machine over the
runs does not always favour the same side.

For every end-to-end metric of the change's BENCHMARK.json it prints both
medians, the change in percent, how many pairs the change won on the
metric's `better` side, and the interquartile range of the parent's runs
(a claimed gain must beat it in the median). The per-run values go to
stderr as they land.

Exits 1 if a run fails: a nonzero exit, no JSON result, a wrong answer or a
failed operation. Exits 1 too if messages_per_op or bytes_per_key differ
between the two sides for a seed: they are exact for a seed, so a
difference is a change of behaviour, never noise. perfbench itself is only
run, never edited.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ("messages_per_op", "bytes_per_key")


def end_to_end(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(checkout, target, workload, seed, seconds):
    """One perfbench run; returns its metrics {name: value}, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    if r.returncode != 0 or res is None or not res.get("correct") or res.get("failed", 1) != 0:
        print(f"perf_pairs: {checkout} {workload} seed {seed} failed (status {r.returncode})",
              file=sys.stderr)
        return None
    return {name: m["value"] for name, m in res["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, metrics, parent_runs, change_runs):
    print(f"== {workload}: {len(parent_runs)} pairs")
    print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'change %':>9} "
          f"{'change won':>10} {'parent IQR':>12}")
    for m in metrics:
        name = m["name"]
        ps = [run[name] for run in parent_runs]
        cs = [run[name] for run in change_runs]
        pm, cm = statistics.median(ps), statistics.median(cs)
        pct = (cm / pm - 1.0) * 100.0 if pm else float("nan")
        higher = m["better"] == "higher"
        won = sum(1 for p, c in zip(ps, cs) if (c > p if higher else c < p))
        lo, hi = quartiles(ps)
        print(f"  {name:<16} {pm:>12.6g} {cm:>12.6g} {pct:>+8.1f}% "
              f"{won:>5}/{len(ps):<4} {hi - lo:>12.4g}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workloads", default="lookup_1m")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--first-seed", type=int, default=11)
    p.add_argument("--parent-target")
    p.add_argument("--change-target")
    args = p.parse_args()
    sides = {
        "parent": (args.parent, args.parent_target or os.path.join(args.parent, ".bench_build")),
        "change": (args.change, args.change_target or os.path.join(args.change, ".bench_build")),
    }
    if os.path.abspath(sides["parent"][1]) == os.path.abspath(sides["change"][1]):
        p.error("the two checkouts need separate build directories")
    metrics = end_to_end(args.change)
    ok = True
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                checkout, target = sides[side]
                got[side] = run_once(checkout, target, workload, seed, args.seconds)
                if got[side] is None:
                    ok = False
                    continue
                shown = " ".join(f"{m['name']}={got[side][m['name']]:.6g}" for m in metrics)
                print(f"pair {i} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)
            if got["parent"] is None or got["change"] is None:
                continue
            for name in EXACT:
                if got["parent"][name] != got["change"][name]:
                    print(f"perf_pairs: {workload} seed {seed}: {name} "
                          f"{got['parent'][name]} -> {got['change'][name]}", file=sys.stderr)
                    ok = False
            runs["parent"].append(got["parent"])
            runs["change"].append(got["change"])
        if runs["parent"]:
            report(workload, metrics, runs["parent"], runs["change"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
