#!/usr/bin/env python3
"""The repository's benchmark: one command, every end-to-end metric.

Run from the repository root:

    python3 perfbench/run.py --workload lookup_1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

It builds the harness (perfbench/CMakeLists.txt, compiling ../src with
contracts off) under $CARGO_TARGET_DIR (default .bench_build), runs one
workload for one seed, checks every answer against an oracle, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics, reduced from the
spans of a traced run (reduce.py), plus the tracing overhead on every
end-to-end metric against an untraced run of the same seed. Exit status is
0 when every answer was right, 1 otherwise. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reduce  # noqa: E402

WORKLOADS = ("lookup_1m", "churn_zipf_16k", "spatial_2d_128k")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "perfbench")


def build():
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            fail("build step %s failed with status %d" % (cmd[:2], r.returncode))
    return os.path.join(out, "perfbench_harness")


def harness(binary, workload, seed, seconds, spans=None, extra=()):
    """Runs the harness once; returns (exit status, its JSON result or None)."""
    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--snapshot-dir", work]
    if spans:
        cmd += ["--trace", "1", "--spans", spans]
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    return r.returncode, res


def git_revision():
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def pick(metrics, names, what):
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("%s metrics missing: %s" % (what, ", ".join(missing)))
    return {n: metrics[n] for n in names}


def run(args):
    bench = spec()
    e2e = [m["name"] for m in bench["end_to_end"]]
    binary = build()
    status, res = harness(binary, args.workload, args.seed, args.seconds)
    if res is None or status not in (0, 4):
        fail("harness failed with status %d" % status)
    context = dict(res["context"], workload=args.workload, nproc=len(os.sched_getaffinity(0)),
                   git_revision=git_revision(), trace=args.trace)
    attempted, failed = res["attempted"], res["failed"]
    correct = res["correct"]
    out = pick(res["metrics"], e2e, "end-to-end")
    if args.trace:
        spans = os.path.join(build_dir(), "run", "%s-%d.spans.tsv" % (args.workload, args.seed))
        status, traced = harness(binary, args.workload, args.seed, args.seconds, spans=spans)
        if traced is None or status not in (0, 4):
            fail("traced harness failed with status %d" % status)
        try:
            layer = reduce.metrics(reduce.load(spans))
        except (OSError, KeyError, ValueError, ZeroDivisionError) as e:
            fail("cannot reduce the trace: %s" % e)
        os.remove(spans)
        for name in e2e:
            base = out[name]["value"]
            layer["trace.overhead." + name] = traced["metrics"][name]["value"] / base - 1.0
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        out = {n: {"value": v, "unit": units[n]} for n, v in pick(layer, list(units), "per-layer").items()}
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and traced["correct"]
    print("context " + json.dumps(context, sort_keys=True))
    for name, m in out.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac %.6g (%d of %d answers)" % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


def self_test(args):
    """An injected wrong answer must be caught on every workload."""
    binary = build()
    ok = True
    for w in WORKLOADS:
        clean_status, clean = harness(binary, w, args.seed, 0.1, extra=["--scale", "6"])
        bad_status, bad = harness(binary, w, args.seed, 0.1, extra=["--scale", "6", "--inject-wrong-answer"])
        caught = bad is not None and bad_status == 4 and bad["failed"] >= 1 and not bad["correct"]
        clean_ok = clean is not None and clean_status == 0 and clean["failed"] == 0
        print("%-16s clean run: %s   injected wrong answer caught: %s"
              % (w, "ok" if clean_ok else "FAIL", "yes" if caught else "NO"), file=sys.stderr)
        ok = ok and caught and clean_ok
    print("self-test " + ("passed" if ok else "FAILED"), file=sys.stderr)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
