#!/usr/bin/env python3
"""Steadiness report: is each end-to-end metric steady enough for its bound?

Runs run.py on one workload once per seed (seeds 1..N by default), then
prints, for every end-to-end metric of BENCHMARK.json, the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
flagging any spread above the metric's bound. It then repeats the first
seed and checks that the exact counts (messages_per_op, bytes_per_key)
repeat bit for bit. setup_s is reported but not held to its bound: its
bound limits how far its median may move, not its spread. Run from the
repository root:

    python3 perfbench/steadiness.py --workload churn_zipf_16k --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("messages_per_op", "bytes_per_key")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("run failed (status %d): %s" % (r.returncode, " ".join(cmd)))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = []
    for s in seeds:
        runs.append(run_once(args.workload, s, seconds))
        print("seed %d done" % s, file=sys.stderr)
    steady = True
    print("%-18s %14s %8s %8s  %s" % ("metric", "median", "iqr/med", "bound", "values"))
    for m in bench["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        held = m["name"] == "setup_s" or spread <= m["bound"]
        steady = steady and held
        print("%-18s %14.6g %8.4f %8.2f  %s%s" % (m["name"], med, spread, m["bound"],
                                               " ".join("%.4g" % v for v in vals),
                                               "" if held else "   <-- spread above bound"))
    again = run_once(args.workload, seeds[0], seconds)
    for name in EXACT:
        same = again[name] == runs[0][name]
        steady = steady and same
        print("%s repeats exactly for seed %d: %s" % (name, seeds[0], "yes" if same else "NO"))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
