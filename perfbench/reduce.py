#!/usr/bin/env python3
"""Reduce a traced run's spans to self time per layer and per-layer metrics.

The harness (harness/common.cpp, tracer::write) writes one span per line:
    id  parent  name  op  t0_ns  t1_ns  key=value,...
The prefix of a span's name up to the first '.' is its layer: the modules
under src/ (workloads, util, api, core, net, serve, persist) plus "bench"
for the harness's own phases. A span's self time is its duration minus the
part of it that its child spans cover.

    python3 perfbench/reduce.py SPANS.tsv     # prints the metrics as JSON
"""

import json
import statistics
import sys
from collections import defaultdict

LAYERS = ["bench", "workloads", "util", "api", "core", "net", "serve", "persist"]


class Span:
    __slots__ = ("id", "parent", "name", "op", "t0", "t1", "attrs")

    def __init__(self, line):
        f = line.rstrip("\n").split("\t")
        self.id, self.parent = int(f[0]), int(f[1])
        self.name, self.op = f[2], int(f[3])
        self.t0, self.t1 = int(f[4]), int(f[5])
        self.attrs = {}
        if len(f) > 6 and f[6]:
            for kv in f[6].split(","):
                k, v = kv.split("=", 1)
                self.attrs[k] = float(v)

    @property
    def ns(self):
        return self.t1 - self.t0


def load(path):
    with open(path) as f:
        return [Span(line) for line in f if line.strip()]


def self_seconds(spans):
    """Self time per layer: duration minus the union of child intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    out = defaultdict(float)
    for s in spans:
        covered, end = 0, s.t0
        for a, b in sorted(children.get(s.id, [])):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.name.split(".", 1)[0]] += (s.ns - covered) * 1e-9
    return out


def metrics(spans):
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def one(name):
        if not by_name[name]:
            raise KeyError("trace has no span named " + name)
        return by_name[name][0]

    def total(name, key):
        one(name)  # must exist
        return sum(s.attrs[key] for s in by_name[name])

    def total_ns(name):
        return sum(s.ns for s in by_name[name])

    def per_op_ns(name):
        """Span time over ops, summed over every span of the name (blocks)."""
        return total_ns(name) / total(name, "ops")

    def mean_ns(name):
        return statistics.fmean(s.ns for s in by_name[name]) if by_name[name] else 0.0

    def median_ns(name):
        return statistics.median(s.ns for s in by_name[name])

    m = {}
    m["workloads.gen_s"] = sum(s.ns for s in by_name["workloads.gen"]) * 1e-9
    m["util.radix_sort_s"] = one("util.radix_sort_u64").ns * 1e-9
    m["api.dispatch_ns_per_op"] = per_op_ns("api.route_block") - per_op_ns("core.route_block")
    fp = one("api.footprint").attrs
    for part in ("arena", "link", "directory", "slack"):
        m["api.footprint.%s_bytes_per_key" % part] = fp[part] / fp["n"]

    rc = one("bench.receipts").attrs
    m["core.hops_per_op"] = rc["messages"] / rc["ops"]
    m["core.visits_per_op"] = rc["visits"] / rc["ops"]
    m["core.comparisons_per_op"] = rc["comparisons"] / rc["ops"]
    m["core.route_ns_per_op"] = per_op_ns("core.route_block")
    m["core.batch_route_ns_per_op"] = per_op_ns("core.route_batch_loop")
    m["core.ns_per_hop"] = m["core.route_ns_per_op"] / max(m["core.hops_per_op"], 1e-9)
    m["core.insert_ns"] = mean_ns("core.insert")
    m["core.erase_ns"] = mean_ns("core.erase")
    m["core.locate_ns_per_op"] = per_op_ns("core.locate_loop")
    rng = one("core.range_loop")
    m["core.range_ns_per_op"] = rng.ns / rng.attrs["ops"]
    m["core.range_results_per_op"] = rng.attrs["results"] / rng.attrs["ops"]
    m["core.anon_huge_bytes"] = one("core.anon_huge").attrs["bytes"]

    for s in by_name["net.commit"]:
        threads = s.attrs["threads"]
        # Per-commit cost seen by one thread: wall time times threads over commits.
        key = "net.commit_ns_per_op" if threads == 1 else "net.commit_ns_per_op_2t"
        m[key] = s.ns * threads / s.attrs["ops"]
    cong = one("net.congestion_profile").attrs
    m["net.max_host_visits_per_kop"] = cong["max_visits"] * 1e3 / cong["ops"]
    m["net.p99_host_visits_per_kop"] = cong["p99_visits"] * 1e3 / cong["ops"]

    # Worker-seconds the executor's slices offered: each call's wall time
    # times the workers it ran on.
    offered = sum(s.ns * sum(1 for w in by_name["serve.worker"] if w.parent == s.id)
                  for s in by_name["serve.for_slices"])
    m["serve.worker_busy_frac"] = total_ns("serve.worker") / offered
    m["serve.parallel_efficiency"] = total_ns("api.route_batch_1t") / offered
    off, on = "serve.cache_off_block", "serve.cache_on_block"
    saved = total(off, "messages") - total(on, "messages")
    m["serve.route_cache_absorbed_per_op"] = saved / total(off, "ops")
    m["serve.route_cache_absorb_ratio"] = saved / max(total(off, "messages"), 1.0)
    m["serve.route_cache_ns_per_op"] = (total_ns(on) - total_ns(off)) / total(off, "ops")

    m["persist.compact_s"] = one("api.compact").ns * 1e-9
    ck = by_name["persist.checksum64"]
    m["persist.checksum_gbps"] = ck[0].attrs["bytes"] / median_ns("persist.checksum64")
    snap = one("persist.snapshot_file").attrs
    m["persist.snapshot_bytes_per_key"] = snap["bytes"] / snap["n"]
    m["persist.restore_map_ms"] = median_ns("api.restore_index") * 1e-6
    m["persist.first_answers_ms"] = median_ns("api.first_batch") * 1e-6

    selfs = self_seconds(spans)
    for layer in LAYERS:
        m[layer + ".self_s"] = selfs.get(layer, 0.0)
    return m


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(metrics(load(sys.argv[1])), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
