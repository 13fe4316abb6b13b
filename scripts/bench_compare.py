#!/usr/bin/env python3
"""Diff two BENCH_*.json files section by section.

Every bench emits arrays of sample objects keyed by identity fields
(backend, mix, n, threads, ...). This tool matches rows across two runs of
the same bench and prints per-section metric deltas — ops/s ratios for the
throughput-style metrics, old/new pairs for the latency-style ones — so a
perf trajectory or a CI gate message shows *which* cells moved, not just
that something did.

Usage:
    bench_compare.py OLD.json NEW.json [--sections samples,bign_scaling,...]
                     [--fail-below RATIO]

--fail-below R exits 1 when any higher-is-better metric of a compared row
lands below R * old (0.9 = "fail on a >10% drop"), or when an exact metric
(EXACT_METRICS) rises above EXACT_TOLERANCE * old; it exits 2 when a gated
section has no rows in common — a silent empty intersection must never read
as a pass. Rows present in only one file are reported but never gated (cell
lists legitimately differ between a full run and a gate run).

thread_scaling cells are compared by speedup_vs_first: each cell's ops/s
over the same run's first (1-thread) cell of the same backend, mix and n.
Two recordings made minutes apart then compare how a backend scales, not
how fast the machine was at the time.
"""

import argparse
import json
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
                ("restore_map_seconds", "restore_load_seconds", "first_query_ms")),
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


def compare_section(section, old_rows, new_rows, fail_below):
    higher, lower = SECTION_METRICS.get(section, ((), ()))
    common = [k for k in old_rows if k in new_rows]
    failures = []
    print(f"== {section}: {len(common)} common rows "
          f"({len(old_rows) - len(common)} only-old, "
          f"{len(new_rows) - len(common)} only-new)")
    for key in common:
        o, n = old_rows[key], new_rows[key]
        parts = []
        for metric in higher + lower:
            if metric not in o or metric not in n:
                continue
            ov, nv = float(o[metric]), float(n[metric])
            ratio = nv / ov if ov else float("inf")
            arrow = ""
            if fail_below is not None and (
                    (metric in higher and ratio < fail_below) or
                    (metric in EXACT_METRICS and ratio > EXACT_TOLERANCE)):
                arrow = "  <-- FAIL"
                failures.append((section, fmt_key(key), metric, ov, nv, ratio))
            parts.append(f"{metric} {ov:,.6g} -> {nv:,.6g} ({ratio:.2f}x){arrow}")
        if parts:
            print(f"  {fmt_key(key)}: " + "; ".join(parts))
    return len(common), failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--sections", default=None,
                    help="comma list; default: every known section present in both files")
    ap.add_argument("--fail-below", type=float, default=None, metavar="RATIO",
                    help="exit 1 if any higher-is-better metric drops below RATIO * old "
                         "or any exact metric rises above EXACT_TOLERANCE * old")
    args = ap.parse_args()

    with open(args.old) as f:
        old_doc = json.load(f)
    with open(args.new) as f:
        new_doc = json.load(f)

    if args.sections:
        sections = args.sections.split(",")
    else:
        sections = [s for s in SECTION_METRICS
                    if isinstance(old_doc.get(s), list) and isinstance(new_doc.get(s), list)]

    all_failures = []
    for section in sections:
        old_rows = index_rows(old_doc, section)
        new_rows = index_rows(new_doc, section)
        if old_rows is None or new_rows is None:
            print(f"== {section}: absent from "
                  f"{'both' if old_rows is None and new_rows is None else 'one file'}, skipped")
            continue
        compared, failures = compare_section(section, old_rows, new_rows, args.fail_below)
        all_failures.extend(failures)
        if args.fail_below is not None and compared == 0:
            print(f"error: gated section '{section}' has no rows in common", file=sys.stderr)
            return 2

    if all_failures:
        print()
        for section, key, metric, ov, nv, ratio in all_failures:
            print(f"::error::{section} {key}: {metric} regressed to {ratio:.3f}x "
                  f"({ov:,.6g} -> {nv:,.6g})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
