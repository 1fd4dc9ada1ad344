#!/usr/bin/env python
"""Benchmark runner: wall-clock + simulated time, serial vs parallel.

Runs a small suite of end-to-end workloads against the embedded instance
and writes a JSON report (default ``BENCH_PR7.json``) with, for each
benchmark, wall-clock seconds and the simulated-clock microseconds, plus
a head-to-head of the serial executor against the parallel one on a
scan/sort-heavy multi-partition job, a
fault-free vs fault-injected comparison of the same query+ingest
workload (the resilience tax: retries, a node restart with WAL replay,
and simulated backoff, with results verified identical), and a
memory-pressure sweep: concurrent spilled sorts under a shrinking
node-level memory-governor budget (reduced grants, merge passes, spill
volume, zero leaked run files).

The head-to-head runs with ``NodeConfig.io_latency_us`` set, emulating a
device where every page touch costs real microseconds (the sleep releases
the GIL, so the parallel executor overlaps it across nodes) — wall-clock
differs, the simulated clock and the result tuples must not.

Usage::

    PYTHONPATH=src python tools/bench_runner.py --quick
    PYTHONPATH=src python tools/bench_runner.py --quick -o out.json

``--quick`` trims dataset sizes and repetitions for CI smoke runs; the
default (full) mode uses larger datasets for more stable figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import connect                                    # noqa: E402
from repro.common.config import (                            # noqa: E402
    ClusterConfig,
    ExecutorConfig,
    NodeConfig,
)

SCHEMA = """
CREATE TYPE UserType AS { id: int, alias: string, age: int };
CREATE TYPE MessageType AS { messageId: int, authorId: int,
                             message: string };
CREATE DATASET Users(UserType) PRIMARY KEY id;
CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
CREATE INDEX byAge ON Users(age);
"""


def load_data(db, n_users: int, n_messages: int) -> None:
    for i in range(n_users):
        db.cluster.insert_record("Default.Users", {
            "id": i, "alias": f"u{i}", "age": 18 + i % 40,
        })
    for i in range(n_messages):
        db.cluster.insert_record("Default.Messages", {
            "messageId": i, "authorId": i % max(1, n_users),
            "message": f"msg-{i} " + "x" * (i % 40),
        })
    db.flush_dataset("Users")
    db.flush_dataset("Messages")


QUERY_BENCHMARKS = [
    ("scan_filter",
     "SELECT VALUE u.alias FROM Users u WHERE u.age > 40;"),
    ("secondary_index_lookup",
     "SELECT VALUE u.alias FROM Users u WHERE u.age = 25;"),
    ("sort_limit",
     "SELECT VALUE m.messageId FROM Messages m "
     "ORDER BY m.message DESC LIMIT 20;"),
    ("join_groupby",
     "SELECT age, COUNT(*) AS n "
     "FROM Users u JOIN Messages m ON m.authorId = u.id "
     "GROUP BY u.age AS age ORDER BY age;"),
    # ISSUE-7 micro-benchmarks: a full (no-LIMIT) multi-field external
    # sort and a multi-aggregate group-by, the two paths the batched
    # execution layer rewrote
    ("sort_heavy",
     "SELECT VALUE m.messageId FROM Messages m "
     "ORDER BY m.authorId, m.messageId DESC;"),
    ("group_heavy",
     "SELECT authorId, COUNT(*) AS n, MIN(m.messageId) AS lo, "
     "MAX(m.messageId) AS hi, SUM(m.messageId) AS total "
     "FROM Messages m GROUP BY m.authorId AS authorId "
     "ORDER BY authorId;"),
]


def run_query_benchmarks(base_dir: str, quick: bool) -> list:
    n_users = 200 if quick else 1000
    n_messages = 1000 if quick else 8000
    repeats = 2 if quick else 5
    config = ClusterConfig(num_nodes=2, partitions_per_node=2,
                           node=NodeConfig(buffer_cache_pages=256))
    results = []
    with connect(os.path.join(base_dir, "queries"), config) as db:
        db.execute(SCHEMA)
        load_data(db, n_users, n_messages)
        for name, query in QUERY_BENCHMARKS:
            best_wall = None
            simulated_us = None
            rows = None
            for _ in range(repeats):
                started = time.perf_counter()
                result = db.execute(query)
                wall = time.perf_counter() - started
                best_wall = wall if best_wall is None else min(best_wall,
                                                               wall)
                simulated_us = result.profile.simulated_us
                rows = len(result.rows)
            results.append({
                "name": name,
                "wall_seconds": round(best_wall, 6),
                "simulated_us": round(simulated_us, 3),
                "rows": rows,
            })
    return results


def run_serial_vs_parallel(base_dir: str, quick: bool) -> dict:
    """Scan/sort-heavy job on a multi-partition cluster with emulated
    device latency: the parallel executor overlaps the (GIL-releasing)
    page-latency sleeps across nodes; the serial one pays them in line.
    """
    n_messages = 2000 if quick else 8000
    io_latency_us = 400.0
    repeats = 2 if quick else 4
    query = ("SELECT VALUE m.messageId FROM Messages m "
             "ORDER BY m.message LIMIT 50;")

    def build(mode: str):
        # the cache is deliberately tiny relative to the dataset so every
        # scan pays device latency — the thing the parallel executor
        # overlaps across nodes
        config = ClusterConfig(
            num_nodes=4, partitions_per_node=1,
            node=NodeConfig(buffer_cache_pages=16,
                            memory_component_pages=32,
                            sort_memory_frames=4,
                            io_latency_us=io_latency_us),
            executor=ExecutorConfig(mode=mode),
        )
        db = connect(os.path.join(base_dir, f"cmp_{mode}"), config)
        db.execute("""
            CREATE TYPE MessageType AS { messageId: int, authorId: int,
                                         message: string };
            CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
        """)
        for i in range(n_messages):
            db.cluster.insert_record("Default.Messages", {
                "messageId": i, "authorId": i % 97,
                "message": f"m{i * 7919 % n_messages:06d}" + "y" * 600,
            })
        db.flush_dataset("Messages")
        return db

    observed = {}
    for mode in ("serial", "parallel"):
        with build(mode) as db:
            best_wall = None
            for _ in range(repeats):
                started = time.perf_counter()
                result = db.execute(query)
                wall = time.perf_counter() - started
                best_wall = wall if best_wall is None else min(best_wall,
                                                               wall)
            observed[mode] = {
                "wall_seconds": best_wall,
                "simulated_us": result.profile.simulated_us,
                "rows": result.rows,
            }
    serial, parallel = observed["serial"], observed["parallel"]
    speedup = serial["wall_seconds"] / parallel["wall_seconds"]
    return {
        "workload": "scan+sort over 4 nodes, "
                    f"{n_messages} records, io_latency_us={io_latency_us}",
        "serial_wall_seconds": round(serial["wall_seconds"], 6),
        "parallel_wall_seconds": round(parallel["wall_seconds"], 6),
        "speedup": round(speedup, 3),
        "identical_results": serial["rows"] == parallel["rows"],
        "identical_simulated_us":
            serial["simulated_us"] == parallel["simulated_us"],
        "simulated_us": round(serial["simulated_us"], 3),
    }


def run_fault_overhead(base_dir: str, quick: bool) -> dict:
    """The same query+ingest workload, fault-free vs fault-injected.

    Reuses the chaos harness workload so the injected faults exercise a
    job retry, a node crash with WAL replay, and a feed source re-pull;
    reports the wall-clock overhead and the simulated backoff/detection
    time the faults cost, with results verified identical."""
    import chaos_runner

    observed = {}
    schedule = chaos_runner.make_schedule(seed=1337)
    for label, sched in (("fault_free", None), ("fault_injected", schedule)):
        started = time.perf_counter()
        run = chaos_runner.run_workload(
            os.path.join(base_dir, f"chaos_{label}"), sched)
        observed[label] = {
            "wall_seconds": time.perf_counter() - started,
            "state_sha256": run["state_sha256"],
            "simulated_clock_us": run["simulated_clock_us"],
            "metrics": run["metrics"],
        }
    clean, faulted = observed["fault_free"], observed["fault_injected"]
    return {
        "workload": "chaos_runner query+ingest workload (seed 1337)",
        "fault_free_wall_seconds": round(clean["wall_seconds"], 6),
        "fault_injected_wall_seconds": round(faulted["wall_seconds"], 6),
        "overhead_ratio": round(
            faulted["wall_seconds"] / clean["wall_seconds"], 3),
        "simulated_recovery_us": round(
            faulted["simulated_clock_us"] - clean["simulated_clock_us"], 3),
        "identical_state": (clean["state_sha256"]
                            == faulted["state_sha256"]),
        "faults_injected": faulted["metrics"].get(
            "resilience.faults_injected", 0),
        "resilience_metrics": faulted["metrics"],
    }


def run_memory_pressure(base_dir: str, quick: bool) -> dict:
    """E4-style budget sweep under concurrency (ISSUE-5): the same
    spilled-sort workload at a shrinking node budget, with several
    concurrent queries arbitrated by the per-node memory governor.
    Records reduced grants, merge passes, spill runs, and wall time per
    budget; every query must complete with correct results and the
    governor's peak must never exceed the budget."""
    import threading

    from repro.hyracks import ClusterController, JobSpecification
    from repro.hyracks.connectors import (
        HashPartitionConnector,
        MergeConnector,
    )
    from repro.hyracks.operators import (
        ExternalSortOp,
        InMemorySourceOp,
        ResultWriterOp,
    )
    from repro.observability.metrics import get_registry

    n_tuples = 600 if quick else 3000
    concurrency = 3
    budgets = [4096, 64, 24, 12]
    data = [(i * 7919 % n_tuples, i) for i in range(n_tuples)]
    registry = get_registry()
    rows = []
    for budget in budgets:
        config = ClusterConfig(
            num_nodes=2, partitions_per_node=2, frame_size=16,
            node=NodeConfig(buffer_cache_pages=128,
                            memory_component_pages=64,
                            sort_memory_frames=32,
                            query_memory_frames=budget,
                            query_admission_frames=2),
        )
        cluster = ClusterController(
            os.path.join(base_dir, f"mem_{budget}"), config)
        try:
            sorts = [ExternalSortOp([0]) for _ in range(concurrency)]
            jobs = []
            for op in sorts:
                job = JobSpecification()
                src = job.add_operator(InMemorySourceOp(data))
                sort = job.add_operator(op)
                sink = job.add_operator(ResultWriterOp())
                job.connect(HashPartitionConnector([0]), src, sort)
                job.connect(MergeConnector([0]), sort, sink)
                jobs.append(job)
            results: dict = {}
            errors: list = []

            def run(q, job):
                try:
                    results[q] = cluster.run_job(job)
                except Exception as exc:  # lint: allow-swallow
                    errors.append(repr(exc))   # thread boundary: surfaced below

            before = registry.snapshot()
            started = time.perf_counter()
            threads = [threading.Thread(target=run, args=(q, job))
                       for q, job in enumerate(jobs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - started
            delta = registry.delta(before)
            correct = not errors and all(
                [t[0] for t in results[q].tuples]
                == sorted(t[0] for t in results[q].tuples)
                and len(results[q].tuples) == n_tuples
                for q in range(concurrency)
            )
            peak = max(node.memory.peak for node in cluster.nodes)
            rows.append({
                "budget_frames": budget,
                "concurrent_queries": concurrency,
                "wall_seconds": round(wall, 6),
                "completed": correct,
                "peak_frames": peak,
                "within_budget": peak <= budget,
                "reduced_grants": delta.get("memory.reduced_grants", 0),
                "merge_passes": delta.get("sort.merge_passes", 0),
                "spill_runs": sum(sum(op.last_run_counts)
                                  for op in sorts),
                "admission_waits": delta.get(
                    "memory.admission_waits", 0),
                "leaked_temp_files": sum(
                    len(node.live_temp_files())
                    for node in cluster.nodes),
            })
        finally:
            cluster.close()
    return {
        "workload": f"{concurrency} concurrent spilled sorts of "
                    f"{n_tuples} tuples, budget sweep",
        "sweep": rows,
    }


TPCCH_SCHEMA = """
CREATE TYPE TpcchOrderType AS { o_id: int };
CREATE DATASET Orders(TpcchOrderType) PRIMARY KEY o_id;
CREATE INDEX oDelivery ON Orders (UNNEST o_orderline SELECT ol_delivery_d);
"""

TPCCH_QUERY = ("SELECT VALUE [o.o_id, ol.ol_number] "
               "FROM Orders o UNNEST o.o_orderline ol "
               "WHERE ol.ol_delivery_d < {cutoff} "
               "ORDER BY o.o_id, ol.ol_number;")


def run_tpcch_sweep(base_dir: str, quick: bool) -> dict:
    """aconitum-style selectivity sweep: the same nested-orderline range
    query through the multi-valued (UNNEST) array index vs a forced full
    scan, at rising selectivity.  Results must be byte-identical at every
    point; the report captures the crossover shape (the index wins when
    the predicate is selective and loses its lead as selectivity rises
    and the random primary lookups approach scanning everything)."""
    from repro.datagen.tpcch import TPCCHGenerator

    scale = 2 if quick else 10
    repeats = 2 if quick else 3
    selectivities = ([0.01, 0.1, 0.5, 1.0] if quick
                     else [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0])
    gen = TPCCHGenerator(seed=42, scale=scale)
    config = ClusterConfig(num_nodes=2, partitions_per_node=2,
                           node=NodeConfig(buffer_cache_pages=256))
    points = []
    with connect(os.path.join(base_dir, "tpcch"), config) as db:
        db.execute(TPCCH_SCHEMA)
        for order in gen.orders():
            db.cluster.insert_record("Default.Orders", order)
        db.flush_dataset("Orders")
        for sel in selectivities:
            cutoff = gen.delivery_day_cutoff(sel)
            query = TPCCH_QUERY.format(cutoff=cutoff)
            index_used = any(
                m["method"] == "array-index"
                for m in db.explain(query).access_methods)
            observed = {}
            for label, toggle in (("index", True), ("scan", False)):
                best_wall = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    result = db.execute(query,
                                        enable_index_access=toggle)
                    wall = time.perf_counter() - started
                    best_wall = (wall if best_wall is None
                                 else min(best_wall, wall))
                observed[label] = {
                    "wall": best_wall,
                    "simulated_us": result.profile.simulated_us,
                    "rows": result.rows,
                }
            index, scan = observed["index"], observed["scan"]
            points.append({
                "selectivity": sel,
                "cutoff": cutoff,
                "rows": len(index["rows"]),
                "index_used": index_used,
                "index_wall_seconds": round(index["wall"], 6),
                "scan_wall_seconds": round(scan["wall"], 6),
                "index_simulated_us": round(index["simulated_us"], 3),
                "scan_simulated_us": round(scan["simulated_us"], 3),
                "index_vs_scan_ratio": round(
                    index["simulated_us"]
                    / max(scan["simulated_us"], 1e-9), 4),
                "identical_results": index["rows"] == scan["rows"],
            })
    return {
        "workload": f"TPC-CH orders scale={scale} "
                    f"({gen.num_orders} orders, nested orderlines), "
                    "range predicate on ol_delivery_d under UNNEST",
        "query": TPCCH_QUERY,
        "sweep": points,
    }



JOINORDER_SCHEMA = """
CREATE TYPE TpcchWType AS { w_id: int };
CREATE TYPE TpcchCType AS { c_id: int };
CREATE TYPE TpcchO2Type AS { o_id: int };
CREATE DATASET Warehouses(TpcchWType) PRIMARY KEY w_id;
CREATE DATASET Customers(TpcchCType) PRIMARY KEY c_id;
CREATE DATASET TOrders(TpcchO2Type) PRIMARY KEY o_id;
"""

#: Adversarial written order: Customers and TOrders share no direct join
#: condition (they connect only through Warehouses), so the syntactic
#: left-deep plan starts with their cross product.  The cost-based
#: reorder joins each through the (filtered) warehouse instead.
JOINORDER_QUERY = (
    "SELECT VALUE [c.c_id, o.o_id, w.w_name] "
    "FROM Customers c, TOrders o, Warehouses w "
    "WHERE c.c_w_id = w.w_id AND o.o_w_id = w.w_id "
    "AND w.w_name = 'W001' "
    "ORDER BY c.c_id, o.o_id;")

#: A moderate case for the same machinery: a pure fk chain written
#: worst-first (fact table first, selective dimension last).
JOINORDER_CHAIN_QUERY = (
    "SELECT VALUE [o.o_id, c.c_last, w.w_name] "
    "FROM TOrders o, Customers c, Warehouses w "
    "WHERE o.o_c_id = c.c_id AND c.c_w_id = w.w_id "
    "AND w.w_state = 'CA' "
    "ORDER BY o.o_id;")


def run_join_order(base_dir: str, quick: bool) -> dict:
    """3-way TPC-CH join in an adversarial written order, stats-driven
    cost-based optimization on vs off.  Results must be byte-identical
    (both queries ORDER BY a unique key); the report carries the
    estimated-vs-actual cardinality per operator from the stats-on run
    and the simulated-clock ratio (the paper's data-partition-aware
    optimizer argument, quantified)."""
    from repro.datagen.tpcch import TPCCHGenerator

    scale = 4 if quick else 10
    repeats = 2 if quick else 3
    gen = TPCCHGenerator(seed=42, scale=scale)
    config = ClusterConfig(num_nodes=2, partitions_per_node=2,
                           node=NodeConfig(buffer_cache_pages=256))
    queries = [("cross_product_trap", JOINORDER_QUERY),
               ("fk_chain_worst_first", JOINORDER_CHAIN_QUERY)]
    points = []
    with connect(os.path.join(base_dir, "joinorder"), config) as db:
        db.execute(JOINORDER_SCHEMA)
        for w in gen.warehouses():
            db.cluster.insert_record("Default.Warehouses", w)
        for c in gen.customers():
            db.cluster.insert_record("Default.Customers", c)
        for o in gen.orders():
            o = dict(o)
            o.pop("o_orderline", None)   # joins only; drop nested lines
            db.cluster.insert_record("Default.TOrders", o)
        for ds in ("Warehouses", "Customers", "TOrders"):
            db.flush_dataset(ds)
        for name, query in queries:
            observed = {}
            for label, toggle in (("stats_on", True), ("stats_off", False)):
                best_wall = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    result = db.execute(query, enable_cost_based=toggle)
                    wall = time.perf_counter() - started
                    best_wall = (wall if best_wall is None
                                 else min(best_wall, wall))
                observed[label] = {
                    "wall": best_wall,
                    "simulated_us": result.profile.simulated_us,
                    "rows": result.rows,
                }
            traced = db.execute(query, trace=True)
            est_vs_actual = [
                {"operator": op["name"],
                 "estimated": op["estimated_cardinality"],
                 "actual": op["actual_cardinality"]}
                for op in traced.trace.operators
                if "estimated_cardinality" in op
            ]
            on, off = observed["stats_on"], observed["stats_off"]
            points.append({
                "query": name,
                "sql": query,
                "rows": len(on["rows"]),
                "identical_results": on["rows"] == off["rows"],
                "stats_on_wall_seconds": round(on["wall"], 6),
                "stats_off_wall_seconds": round(off["wall"], 6),
                "stats_on_simulated_us": round(on["simulated_us"], 3),
                "stats_off_simulated_us": round(off["simulated_us"], 3),
                "off_vs_on_ratio": round(
                    off["simulated_us"] / max(on["simulated_us"], 1e-9), 4),
                "est_vs_actual": est_vs_actual,
            })
    return {
        "workload": f"TPC-CH warehouses/customers/orders scale={scale}: "
                    "3-way joins in adversarial written order, "
                    "cost-based optimization on vs off",
        "points": points,
    }


def main(argv=None) -> int:
    # verification is on for benchmarks too; its cost is part of the
    # compile phases the reports break out, not of operator runtime
    from repro.analysis import set_plan_verification
    set_plan_verification(True)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small datasets / few repeats (CI smoke)")
    parser.add_argument("-o", "--output", default="BENCH_PR7.json",
                        help="report path (default: BENCH_PR7.json)")
    parser.add_argument("--tpcch-output", default="BENCH_PR8.json",
                        help="TPC-CH sweep report path "
                             "(default: BENCH_PR8.json)")
    parser.add_argument("--joinorder-output", default="BENCH_PR10.json",
                        help="join-order benchmark report path "
                             "(default: BENCH_PR10.json)")
    args = parser.parse_args(argv)

    base_dir = tempfile.mkdtemp(prefix="bench_runner_")
    try:
        started = time.perf_counter()
        benchmarks = run_query_benchmarks(base_dir, args.quick)
        comparison = run_serial_vs_parallel(base_dir, args.quick)
        fault_overhead = run_fault_overhead(base_dir, args.quick)
        memory_pressure = run_memory_pressure(base_dir, args.quick)
        tpcch = run_tpcch_sweep(base_dir, args.quick)
        join_order = run_join_order(base_dir, args.quick)
        report = {
            "mode": "quick" if args.quick else "full",
            "benchmarks": benchmarks,
            "serial_vs_parallel": comparison,
            "fault_overhead": fault_overhead,
            "memory_pressure": memory_pressure,
            "tpcch_sweep": tpcch,
            "join_order": join_order,
            "total_seconds": round(time.perf_counter() - started, 3),
        }
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    with open(args.tpcch_output, "w") as f:
        json.dump({"mode": report["mode"], "tpcch_sweep": tpcch}, f,
                  indent=2)
        f.write("\n")
    with open(args.joinorder_output, "w") as f:
        json.dump({"mode": report["mode"], "join_order": join_order}, f,
                  indent=2)
        f.write("\n")

    print(f"wrote {args.output}, {args.tpcch_output}, "
          f"and {args.joinorder_output}")
    for bench in benchmarks:
        print(f"  {bench['name']:<24} wall {bench['wall_seconds']*1e3:8.2f} ms"
              f"   simulated {bench['simulated_us']/1e3:10.2f} ms")
    print(f"  serial vs parallel: {comparison['serial_wall_seconds']*1e3:.2f}"
          f" ms vs {comparison['parallel_wall_seconds']*1e3:.2f} ms"
          f"  (speedup {comparison['speedup']}x)")
    print(f"  fault overhead: "
          f"{fault_overhead['fault_free_wall_seconds']*1e3:.2f} ms clean vs "
          f"{fault_overhead['fault_injected_wall_seconds']*1e3:.2f} ms "
          f"faulted ({fault_overhead['overhead_ratio']}x, "
          f"{fault_overhead['faults_injected']} faults)")
    for row in memory_pressure["sweep"]:
        print(f"  memory budget {row['budget_frames']:>5} frames: "
              f"wall {row['wall_seconds']*1e3:8.2f} ms  "
              f"spill runs {row['spill_runs']:>4}  "
              f"reduced grants {row['reduced_grants']:>3}  "
              f"peak {row['peak_frames']}")

    for row in tpcch["sweep"]:
        print(f"  tpcch sel {row['selectivity']:<6} rows {row['rows']:>6}: "
              f"index {row['index_simulated_us']/1e3:9.2f} ms vs scan "
              f"{row['scan_simulated_us']/1e3:9.2f} ms simulated "
              f"(ratio {row['index_vs_scan_ratio']})")

    for row in join_order["points"]:
        print(f"  join order {row['query']:<22} rows {row['rows']:>6}: "
              f"stats-on {row['stats_on_simulated_us']/1e3:9.2f} ms vs "
              f"stats-off {row['stats_off_simulated_us']/1e3:9.2f} ms "
              f"simulated (off/on {row['off_vs_on_ratio']}x)")

    headline = join_order["points"][0]
    join_order_ok = (
        all(row["identical_results"] for row in join_order["points"])
        # the cost-based order must beat the adversarial written order
        # by >= 2x on the simulated clock (the acceptance bar)
        and headline["off_vs_on_ratio"] >= 2.0
        and all(row["off_vs_on_ratio"] >= 1.0
                for row in join_order["points"])
        and all(row["est_vs_actual"] for row in join_order["points"]))
    if not join_order_ok:
        print("FAIL: join-order benchmark did not meet the bar "
              "(byte-identical results, >= 2x simulated win on the "
              "adversarial order, estimates attached)", file=sys.stderr)
        return 1

    tp = tpcch["sweep"]
    tpcch_ok = (all(row["identical_results"] and row["index_used"]
                    for row in tp)
                # the crossover shape: the index wins at the most
                # selective point and its advantage erodes monotonically
                # in the sweep's ratio ordering as selectivity rises
                and tp[0]["index_vs_scan_ratio"] < 1.0
                and tp[0]["index_vs_scan_ratio"]
                < tp[-1]["index_vs_scan_ratio"])
    if not tpcch_ok:
        print("FAIL: TPC-CH sweep did not meet the bar (byte-identical "
              "index vs scan results, array index chosen, and the "
              "index-vs-scan crossover shape)", file=sys.stderr)
        return 1

    sweep = memory_pressure["sweep"]
    ok = (comparison["identical_results"]
          and comparison["identical_simulated_us"]
          and comparison["speedup"] >= 1.5
          and fault_overhead["identical_state"]
          and fault_overhead["faults_injected"] >= 3
          and all(row["completed"] and row["within_budget"]
                  and row["leaked_temp_files"] == 0 for row in sweep)
          and any(row["reduced_grants"] >= 1 for row in sweep))
    if not ok:
        print("FAIL: parallel executor, resilience layer, or memory "
              "governor did not meet the bar (identical results, >=1.5x "
              "wall-clock, identical faulted state, all budget-sweep "
              "queries completed within budget with zero leaked run "
              "files and at least one reduced grant)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
