#!/usr/bin/env python3
"""Schema and sanity checks for the BENCH_*.json files the benches write.

One function per check; every check asserts its file's required fields
through the shared `require` helper, then the cross-row invariants that make
the file a gate rather than a format check. Run from the directory holding
the bench output:

    check_bench_schema.py table1 COMMITTED.json   # BENCH_table1.json == committed samples
    check_bench_schema.py congestion              # BENCH_congestion.json
    check_bench_schema.py failures                # BENCH_failures.json
    check_bench_schema.py latency                 # BENCH_latency.json
    check_bench_schema.py strings                 # BENCH_strings.json
    check_bench_schema.py concurrency             # BENCH_throughput.json + BENCH_spatial.json
    check_bench_schema.py footprint               # the same two, plus the first's bign_scaling
    check_bench_schema.py restart                 # BENCH_restart_smoke.json

A failed check exits nonzero with the assertion that tripped.
"""

import json
import sys

FOOTPRINT = ("arena_bytes", "link_bytes", "directory_bytes", "total_bytes", "bytes_per_key")


def load(path):
    with open(path) as f:
        return json.load(f)


def require(row, fields, *context):
    """Assert that `row` carries every name in `fields`."""
    for key in fields:
        assert key in row, (*context, key, row)


def check_table1(committed_path, fresh_path="BENCH_table1.json"):
    # Table 1 is a cost-model gate: H, memory, congestion, Q and U of every
    # row must equal the committed samples.
    fresh = load(fresh_path)["samples"]
    committed = load(committed_path)["samples"]
    if fresh != committed:
        for i in range(max(len(fresh), len(committed))):
            a = committed[i] if i < len(committed) else None
            b = fresh[i] if i < len(fresh) else None
            if a != b:
                print(f"row {i}: committed {a}\n        fresh     {b}")
        sys.exit("BENCH_table1.json samples differ from the committed file")
    print(f"Table 1: {len(fresh)} samples match the committed file")


def check_congestion(path="BENCH_congestion.json"):
    doc = load(path)
    assert isinstance(doc["hardware_concurrency"], int)
    assert doc["cache_options"]["capacity"] >= 1
    samples = doc["samples"]
    assert samples, "empty congestion samples"
    required = ("backend", "workload", "s", "cache", "ops", "ops_per_sec",
                "max_host_visits", "p99_host_visits", "mean_host_visits",
                "hosts", "hosts_touched", "total_messages",
                "max_op_host_load", "cache_hits")
    cells = {}
    for smp in samples:
        require(smp, required)
        cells[(smp["backend"], smp["workload"], smp["cache"])] = smp
    # Every backend must have both cache arms for every workload, and the
    # replica cache must absorb skew on the headline backend.
    for (backend, workload, cache), smp in cells.items():
        assert (backend, workload, not cache) in cells, (backend, workload)
    on = cells[("skipweb1d", "zipf1.1", True)]
    off = cells[("skipweb1d", "zipf1.1", False)]
    assert on["cache_hits"] > 0, "cache never absorbed a hop"
    assert on["max_host_visits"] < off["max_host_visits"], (
        "replica cache did not reduce skipweb1d max host visits under Zipf(1.1): "
        f"{on['max_host_visits']} vs {off['max_host_visits']}")
    drop = 1 - on["max_host_visits"] / off["max_host_visits"]
    print(f"congestion schema ok ({len(samples)} samples; "
          f"skipweb1d zipf1.1 max-visit drop with cache: {drop:.0%})")


def check_failures(path="BENCH_failures.json"):
    doc = load(path)
    assert isinstance(doc["hardware_concurrency"], int)
    assert doc["replication"] >= 1
    rows = doc["rows"]
    assert rows, "empty failure rows"
    required = ("structure", "kill_fraction", "hosts", "hosts_killed",
                "replication", "phase", "ops", "failed_ops",
                "availability", "messages_per_op")
    cells = {}
    for r in rows:
        require(r, required)
        assert 0.0 <= r["availability"] <= 1.0, r
        if r["phase"] == "post_repair":
            require(r, ("repaired", "repair_rounds", "repair_messages",
                        "repair_messages_per_killed_host"))
        cells[(r["structure"], r["kill_fraction"], r["replication"], r["phase"])] = r
    for structure in ("skipweb1d", "skip_quadtree2"):
        # Zero faults: the replication knob must not cost availability.
        assert cells[(structure, 0.0, 0, "pre_repair")]["availability"] == 1.0
        # At 10% killed: unreplicated runs fail measurably, replicated runs
        # hold >=99% availability and repair must have done work.
        k = doc["replication"]
        assert cells[(structure, 0.1, 0, "pre_repair")]["availability"] < 0.99, structure
        pre = cells[(structure, 0.1, k, "pre_repair")]
        post = cells[(structure, 0.1, k, "post_repair")]
        assert pre["availability"] >= 0.99, (structure, pre)
        assert post["availability"] >= 0.99, (structure, post)
        assert post["repair_messages"] > 0, (structure, post)
    print(f"failures schema ok ({len(rows)} rows)")


def check_latency(path="BENCH_latency.json"):
    doc = load(path)
    assert isinstance(doc["hardware_concurrency"], int)
    assert doc["hop_median_ns"] >= 1
    rows = doc["rows"]
    assert rows, "empty latency rows"
    required = ("structure", "arm", "ops", "p50_ns", "p99_ns", "p999_ns",
                "mean_ns", "hedged", "hedge_wins", "timed_out_ops",
                "failed_ops", "messages_per_op", "retries_per_op")
    cells = {}
    for r in rows:
        require(r, required)
        assert r["p50_ns"] <= r["p99_ns"] <= r["p999_ns"], r
        assert r["hedge_wins"] <= r["hedged"], r
        cells[(r["structure"], r["arm"])] = r
    for structure in ("skipweb1d", "bucket_skipweb", "skip_graph"):
        # Healthy fleets neither time out nor hedge.
        healthy = cells[(structure, "zero_fault")]
        assert healthy["timed_out_ops"] == 0 and healthy["hedged"] == 0, healthy
        # Every hedged arm pairs with its unhedged twin, fires real
        # duplicates, and cuts the straggler-fleet tail.
        plain = cells[(structure, "slowdown")]
        hedged = cells[(structure, "slowdown_hedged")]
        assert hedged["hedged"] > 0, (structure, hedged)
        assert hedged["p99_ns"] < plain["p99_ns"], (
            f"{structure}: hedging did not cut p99 "
            f"({hedged['p99_ns']} vs {plain['p99_ns']})")
    # Loss pricing: retries happened and were charged.
    assert cells[("skipweb1d", "loss_retry")]["retries_per_op"] > 0
    # Deadlines: some ops gave up, none of them silently.
    dl = cells[("skipweb1d", "deadline")]
    assert dl["deadline_ns"] > 0 and dl["timed_out_ops"] > 0, dl
    sat = doc["saturation"]
    assert sat, "empty saturation sweep"
    by_load = sorted(sat, key=lambda s: s["load_factor"])
    assert by_load[-1]["p99_ns"] >= by_load[0]["p99_ns"], by_load
    print(f"latency schema ok ({len(rows)} rows, {len(sat)} saturation cells; "
          f"skipweb1d slowdown p99 {cells[('skipweb1d', 'slowdown')]['p99_ns']} -> "
          f"hedged {cells[('skipweb1d', 'slowdown_hedged')]['p99_ns']})")


def check_strings(path="BENCH_strings.json"):
    doc = load(path)
    assert isinstance(doc["hardware_concurrency"], int)
    assert doc["top_k"] >= 1 and doc["zipf_s"] > 1.0
    rows = doc["rows"]
    assert rows, "empty string rows"
    required = ("backend", "section", "stream", "n", "ops", "seconds",
                "ops_per_sec", "messages_per_op", "host_visits_per_op",
                "comparisons_per_op", "results_per_op")
    cells = {}
    for r in rows:
        require(r, required)
        assert r["ops"] > 0 and r["ops_per_sec"] > 0, r
        cells[(r["backend"], r["section"], r["stream"])] = r
    # Every backend covers the full section x stream grid.
    backends = {r["backend"] for r in rows}
    assert backends >= {"string_skiptrie", "string_sorted"}, backends
    for b in backends:
        for section in ("prefix", "topk", "intersect"):
            for stream in ("uniform", "zipf1.1"):
                assert (b, section, stream) in cells, (b, section, stream)
    # Same corpus + same seeded streams: every backend must return the same
    # answers, so per-op result counts agree across backends.
    for section in ("prefix", "topk", "intersect"):
        for stream in ("uniform", "zipf1.1"):
            counts = {cells[(b, section, stream)]["results_per_op"] for b in backends}
            assert len(counts) == 1, (section, stream, counts)
    print(f"strings schema ok ({len(rows)} rows, {len(backends)} backends)")


SAMPLE_FILES = ("BENCH_throughput.json", "BENCH_spatial.json")


def check_concurrency(*paths):
    for name in paths or SAMPLE_FILES:
        doc = load(name)
        assert isinstance(doc["hardware_concurrency"], int), name
        for s in doc["samples"]:
            assert isinstance(s["threads"], int) and s["threads"] >= 1, (name, s)
            require(s, ("per_thread_ops_per_sec",), name)
        scaling = doc["thread_scaling"]
        assert scaling, f"{name}: empty thread_scaling"
        for s in scaling:
            require(s, ("backend", "n", "threads", "ops_per_sec",
                        "per_thread_ops_per_sec", "speedup_vs_first"), name)
        print(f"{name}: schema ok "
              f"({len(doc['samples'])} samples, {len(scaling)} scaling cells)")


def check_footprint(*paths):
    # Every throughput/spatial sample reports the per-backend memory
    # footprint split (DESIGN.md §12); totals must be coherent.
    paths = paths or SAMPLE_FILES
    for name in paths:
        doc = load(name)
        for s in doc["samples"]:
            require(s, FOOTPRINT, name)
            assert s["total_bytes"] == (s["arena_bytes"] + s["link_bytes"]
                                        + s["directory_bytes"]), (name, s)
            assert s["total_bytes"] > 0, (name, s)
        print(f"{name}: footprint fields ok ({len(doc['samples'])} samples)")
    # The smoke run bulk-builds one 256k deployment per big-n backend.
    cells = load(paths[0])["bign_scaling"]
    assert cells, "empty bign_scaling"
    required = ("backend", "n", "bulk_build_seconds", "insert_us_per_op",
                "inserts_sampled", "est_incremental_build_seconds",
                "bulk_speedup", "serial_ops_per_sec", "batch",
                "batch_ops_per_sec") + FOOTPRINT
    for c in cells:
        require(c, required)
        assert c["n"] >= (1 << 18), c
        assert c["bulk_build_seconds"] > 0, c
        assert c["bulk_speedup"] > 1.0, c
        assert c["serial_ops_per_sec"] > 0 and c["batch_ops_per_sec"] > 0, c
    print(f"bign_scaling: schema ok ({len(cells)} cells)")


def check_restart(path="BENCH_restart_smoke.json"):
    # The restart cell is the round-trip smoke: bulk-build, compact + save,
    # restore both ways onto fresh networks, and re-validate the restored
    # twin's answers and receipts against the original (answers_match).
    cells = load(path)["restart"]
    assert cells, "empty restart section"
    required = ("backend", "n", "bulk_build_seconds", "save_seconds",
                "snapshot_bytes", "restore_load_seconds",
                "restore_map_seconds", "first_query_ms",
                "restore_speedup_vs_bulk", "answers_match")
    for c in cells:
        require(c, required)
        assert c["answers_match"] is True, c
        assert c["snapshot_bytes"] > 0, c
        assert c["restore_map_seconds"] > 0, c
        # Cold start must beat building from scratch outright.
        assert c["restore_map_seconds"] < c["bulk_build_seconds"], c
    by = {c["backend"]: c for c in cells}
    for backend in ("skipweb1d", "bucket_skipweb"):
        assert backend in by and by[backend]["n"] == 100000, by
    print(f"restart: schema ok ({len(cells)} cells; skipweb1d n=100k "
          f"map restore {by['skipweb1d']['restore_map_seconds'] * 1e3:.2f} ms, "
          f"{by['skipweb1d']['restore_speedup_vs_bulk']:.0f}x vs bulk build)")


CHECKS = {
    "table1": check_table1,
    "congestion": check_congestion,
    "failures": check_failures,
    "latency": check_latency,
    "strings": check_strings,
    "concurrency": check_concurrency,
    "footprint": check_footprint,
    "restart": check_restart,
}


def main(argv):
    if len(argv) < 2 or argv[1] not in CHECKS:
        sys.exit(f"usage: {argv[0]} {{{','.join(CHECKS)}}} [args...]")
    CHECKS[argv[1]](*argv[2:])


if __name__ == "__main__":
    main(sys.argv)
