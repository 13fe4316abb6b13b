#!/usr/bin/env python3
"""Diff BENCH_*.json files section by section: one old run against new runs.

Every bench emits arrays of sample objects keyed by identity fields
(backend, mix, n, threads, ...). This tool matches rows across runs of the
same bench and prints per-section metric deltas — ops/s ratios for the
throughput-style metrics, old/new pairs for the latency-style ones — so a
perf trajectory or a CI gate message shows *which* cells moved, not just
that something did.

Usage:
    bench_compare.py OLD.json NEW.json [NEW.json ...]
                     [--sections samples,bign_scaling,...] [--fail-below RATIO]

With several NEW files, each cell's metric is the median of its values
across them, so one slow sample does not decide a gate. An exact metric
(EXACT_METRICS) must read the same in every NEW file; where it does not,
the tool names the cell and exits 1.

--fail-below R exits 1 when any higher-is-better metric of a compared row
lands below R * old (0.9 = "fail on a >10% drop"), or when an exact metric
rises above EXACT_TOLERANCE * old; it exits 2 when a gated section has no
rows in common — a silent empty intersection must never read as a pass. A
row is compared when OLD and every NEW file hold it; rows missing from some
file are counted but never gated (cell lists legitimately differ between a
full run and a gate run).

thread_scaling cells are compared by speedup_vs_first: each cell's ops/s
over the same run's first (1-thread) cell of the same backend, mix and n.
Two recordings made minutes apart then compare how a backend scales, not
how fast the machine was at the time.
"""

import argparse
import json
import statistics
import sys

# Identity fields: every subset present in a row forms its key.
ID_FIELDS = ("backend", "structure", "mix", "workload", "arm", "phase", "dist",
             "n", "threads", "s", "cache", "kill_fraction", "replication", "batch")

# section -> (higher-is-better metrics, lower-is-better metrics)
SECTION_METRICS = {
    "samples": (("ops_per_sec",), ("messages_per_op", "bytes_per_key")),
    "bign_scaling": (("serial_ops_per_sec", "batch_ops_per_sec", "bulk_speedup"),
                     ("bulk_build_seconds", "bytes_per_key")),
    "thread_scaling": (("speedup_vs_first",), ()),
    "restart": (("restore_speedup_vs_bulk",),
                ("save_seconds", "restore_map_seconds", "restore_load_seconds",
                 "first_query_ms")),
    "rows": ((), ("p99_ns", "messages_per_op")),
    "saturation": ((), ("p99_ns",)),
}


# Lower-is-better metrics that repeat exactly for one seed and op count, and
# how far a gated run may read above the old value before it fails
# (--fail-below). bytes_per_key counts capacity; messages_per_op is the
# receipts' cost model. A rise in either is a change of code, never noise.
EXACT_METRICS = ("bytes_per_key", "messages_per_op")
EXACT_TOLERANCE = 1.01


def row_key(row):
    return tuple((f, row[f]) for f in ID_FIELDS if f in row)


def fmt_key(key):
    return " ".join(f"{v}" if f in ("backend", "structure", "mix", "workload",
                                    "arm", "phase", "dist") else f"{f}={v}"
                    for f, v in key)


def index_rows(doc, section):
    rows = doc.get(section)
    if not isinstance(rows, list):
        return None
    out = {}
    for row in rows:
        if isinstance(row, dict):
            out[row_key(row)] = row
    return out


def compare_section(section, old_rows, new_runs, fail_below):
    """Compares old_rows with the median of each cell over new_runs (a list
    of row indexes, one per NEW file). Returns the number of rows compared,
    the gate failures and the exact metrics that differ across new_runs."""
    higher, lower = SECTION_METRICS.get(section, ((), ()))
    common = [k for k in old_rows if all(k in rows for rows in new_runs)]
    in_new = set().union(*new_runs)
    failures, unsteady = [], []
    runs = f" (median of {len(new_runs)} runs)" if len(new_runs) > 1 else ""
    print(f"== {section}: {len(common)} common rows{runs} "
          f"({len(set(old_rows) - in_new)} only-old, "
          f"{len(in_new - set(old_rows))} only-new, "
          f"{len(set(old_rows) & in_new) - len(common)} not in every new run)")
    for key in common:
        o = old_rows[key]
        parts = []
        for metric in higher + lower:
            if metric not in o or any(metric not in rows[key] for rows in new_runs):
                continue
            values = [float(rows[key][metric]) for rows in new_runs]
            if metric in EXACT_METRICS and len(set(values)) > 1:
                unsteady.append((section, fmt_key(key), metric, values))
            ov, nv = float(o[metric]), statistics.median(values)
            ratio = nv / ov if ov else float("inf")
            arrow = ""
            if fail_below is not None and (
                    (metric in higher and ratio < fail_below) or
                    (metric in EXACT_METRICS and ratio > EXACT_TOLERANCE)):
                arrow = "  <-- FAIL"
                failures.append((section, fmt_key(key), metric, ov, nv, ratio))
            spread = (f" [{min(values):,.6g}-{max(values):,.6g}]"
                      if len(values) > 1 and metric not in EXACT_METRICS else "")
            parts.append(f"{metric} {ov:,.6g} -> {nv:,.6g}{spread} ({ratio:.2f}x){arrow}")
        if parts:
            print(f"  {fmt_key(key)}: " + "; ".join(parts))
    return len(common), failures, unsteady


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new", nargs="+", help="one or more runs; cells compare by their median")
    ap.add_argument("--sections", default=None,
                    help="comma list; default: every known section present in every file")
    ap.add_argument("--fail-below", type=float, default=None, metavar="RATIO",
                    help="exit 1 if any higher-is-better metric drops below RATIO * old "
                         "or any exact metric rises above EXACT_TOLERANCE * old")
    args = ap.parse_args()

    with open(args.old) as f:
        old_doc = json.load(f)
    new_docs = []
    for path in args.new:
        with open(path) as f:
            new_docs.append(json.load(f))

    if args.sections:
        sections = args.sections.split(",")
    else:
        sections = [s for s in SECTION_METRICS
                    if all(isinstance(d.get(s), list) for d in [old_doc] + new_docs)]

    all_failures, all_unsteady = [], []
    for section in sections:
        old_rows = index_rows(old_doc, section)
        new_runs = [index_rows(d, section) for d in new_docs]
        if old_rows is None or any(rows is None for rows in new_runs):
            print(f"== {section}: absent from "
                  f"{'the old file' if old_rows is None else 'a new file'}, skipped")
            continue
        compared, failures, unsteady = compare_section(section, old_rows, new_runs,
                                                       args.fail_below)
        all_failures.extend(failures)
        all_unsteady.extend(unsteady)
        if args.fail_below is not None and compared == 0:
            print(f"error: gated section '{section}' has no rows in common", file=sys.stderr)
            return 2

    if all_failures or all_unsteady:
        print()
        for section, key, metric, values in all_unsteady:
            print(f"::error::{section} {key}: exact metric {metric} differs across the new "
                  f"runs ({', '.join(f'{v:,.6g}' for v in values)})")
        for section, key, metric, ov, nv, ratio in all_failures:
            print(f"::error::{section} {key}: {metric} regressed to {ratio:.3f}x "
                  f"({ov:,.6g} -> {nv:,.6g})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
