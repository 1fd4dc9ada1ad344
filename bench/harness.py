"""Run one workload against the program and measure it from outside.

Two kinds of run.  The *untraced* run gives the end-to-end metrics: it
loads an instance, executes the fixed op sequence through the public
``db.execute`` / ``FeedManager.pump``, checks every answer, then crashes
both nodes, restarts them and compares a full scan with the model of
acknowledged writes.  The *traced* run gives the per-layer metrics: it
replays the first third of the same ops on a fresh instance, driving
each statement step by step exactly as ``AsterixInstance._run_plan``
does, with a span around every call into a layer, and reads the counters
the layers already export.  Nothing under ``src/`` is touched.

Shared set-up, identical on both sides of any comparison (the stated
flush policy): 2 nodes x 2 partitions, ``buffer_cache_pages=64``
(256 KiB per node), ``memory_component_pages=8`` so flush and merge
cycles happen many times within one run; everything else default
(parallel, pipelined, compiled, batched executor; ``io_latency_us=0``;
``PrefixMergePolicy``; no explicit checkpoint).  Data is loaded through
``cluster.insert_record`` so components form naturally, flushed once at
90 %, and the last 10 % is left in the memory components, as in a live
system.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro import ClusterConfig, NodeConfig, connect, get_registry
from repro.adm import MISSING
from repro.adm.serializer import deserialize, serialize
from repro.algebricks import compile_plan, optimize
from repro.analysis import analyze_statement
from repro.feeds import FeedManager, GeneratorSource
from repro.lang import core_ast as ast
from repro.lang.sqlpp.parser import parse_sqlpp
from repro.lang.translator import Translator
from repro.observability import RewriteRecorder, access_methods
from repro.storage.iodevice import IOStats

import queries
import workloads
from tracing import Tracer
from workloads import READ_KINDS, WARMUP_OPS

SETUP_REPEATS = 3
RESTART_REPEATS = 5
PROBE_RECORDS = (400, 80)        # (full, reduced) records on the probe instance
FEED = "orders_feed"

_ACCESS_LINE = {
    "primary-scan": "data-scan Default.{0}",
    "primary-index": "primary-search Default.{0}",
    "btree-index": "btree-index-search Default.{0}.{1}",
    "array-index": "array-index-search Default.{0}.{1}",
}


def cluster_config() -> ClusterConfig:
    return ClusterConfig(
        num_nodes=2, partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=64, memory_component_pages=8))


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def repeat_more(times_s: list, at_least: int, until_s: float) -> bool:
    """Set-up and restart are repeated and their median reported.  One
    that takes milliseconds is repeated more often (up to ten times as
    often, until ``until_s`` is spent), or scheduling noise would decide
    its median."""
    return len(times_s) < at_least or (
        sum(times_s) < until_s and len(times_s) < 10 * at_least)


# -- one loaded instance -----------------------------------------------------------

class Instance:
    """A loaded instance plus the model of what it has acknowledged."""

    def __init__(self, base_dir: str, inputs: workloads.Inputs,
                 tracer: Tracer | None = None):
        self.base_dir = base_dir
        self.inputs = inputs
        self.tracer = tracer
        started = time.perf_counter()
        self.db = connect(base_dir, cluster_config())
        self.db.execute(inputs.ddl)
        cluster = self.db.cluster
        for last_tenth in (False, True):
            for dataset, records in inputs.load.items():
                cut = len(records) * 9 // 10
                part = records[cut:] if last_tenth else records[:cut]
                for record in part:
                    cluster.insert_record("Default." + dataset, record)
            if not last_tenth:
                for dataset in inputs.load:
                    with self._span("storage.flush_dataset"):
                        self.db.flush_dataset(dataset)
        self.feeds = FeedManager(self.db)
        fed = [s.records for op in inputs.ops for s in op if s.kind == "feed"]
        if fed:
            self.feeds.create_feed(
                FEED, GeneratorSource(itertools.chain.from_iterable(fed)),
                batch_size=len(fed[0]))
            self.feeds.connect_feed(FEED, "Orders")
            self.feeds.start_feed(FEED)
        self.setup_s = time.perf_counter() - started
        # everything below is the benchmark's own book-keeping, not set-up
        self.model = {
            dataset: {r[queries.PRIMARY_KEY[dataset]]: r for r in records}
            for dataset, records in inputs.load.items()}
        self.user_bytes = sum(len(serialize(r))
                              for records in inputs.load.values()
                              for r in records)
        self.acked_records = 0           # record writes acknowledged by ops

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    # -- the two ways to execute a step ---------------------------------------

    def execute(self, step) -> "Outcome":
        """Through the public API, as a client would."""
        text = workloads.statement(step)
        if text is None:
            io = self.io()
            started = time.perf_counter()
            rows = [self.feeds.pump(FEED, max_batches=1)]
            wall = time.perf_counter() - started
            return Outcome(rows, "", self.io_cost_us(io), wall)
        started = time.perf_counter()
        result = self.db.execute(text)
        wall = time.perf_counter() - started
        return Outcome(result.rows, result.plan,
                       result.profile.simulated_us, wall)

    def execute_traced(self, step, stats: "TraceStats") -> "Outcome":
        """The same call chain as ``execute_all`` -> ``_execute_one`` ->
        ``_run_plan``, one layer call at a time, each under a span."""
        tracer = self.tracer
        text = workloads.statement(step)
        if text is None:
            io = self.io()
            with tracer.span("feeds.pump") as span:
                rows = [self.feeds.pump(FEED, max_batches=1)]
            return Outcome(rows, "", self.io_cost_us(io),
                           (span[2] - span[1]) / 1e9)
        db = self.db
        with tracer.span("api.statement") as span:
            with tracer.span("lang.parse"):
                (stmt,) = parse_sqlpp(text)
            translator = Translator(db.metadata)
            with tracer.span("analysis.analyze"):
                analyze_statement(stmt, db.metadata)
            with tracer.span("lang.translate"):
                if isinstance(stmt, ast.QueryStatement):
                    plan = translator.translate_query(stmt.query)
                elif isinstance(stmt, ast.InsertStatement):
                    plan = translator.translate_insert(stmt)
                else:
                    plan = translator.translate_delete(stmt)
            recorder = RewriteRecorder()
            with tracer.span("algebricks.optimize"):
                optimized = optimize(plan, db.metadata, recorder=recorder)
            with tracer.span("algebricks.jobgen"):
                job, _ = compile_plan(optimized, db.metadata,
                                      db.cluster.num_partitions)
            with tracer.span("hyracks.run_job"):
                job_result = db.cluster.run_job(job)
            rows = [t[0] for t in job_result.tuples if t[0] is not MISSING]
        paths = access_methods(optimized)
        stats.add_statement(recorder, paths, job_result.profile, len(rows))
        plan_text = "\n".join(
            _ACCESS_LINE[m["method"]].format(
                m["dataset"].split(".", 1)[1], m.get("index"))
            for m in paths)
        return Outcome(rows, plan_text, job_result.profile.simulated_us,
                       (span[2] - span[1]) / 1e9)

    # -- checking ------------------------------------------------------------------

    def check_and_apply(self, step, outcome: "Outcome") -> bool:
        """Is the outcome what the model of acknowledged writes predicts?
        Then apply the step's writes to the model (it was acknowledged)."""
        orders = self.model.get("Orders")
        kind = step.kind
        if kind == "query":
            ok = queries.rows_match(outcome.rows,
                                    self.inputs.expected[step.arg.name],
                                    step.arg.ordered)
        elif kind == "pk":
            want = [orders[step.arg]] if step.arg in orders else []
            ok = queries.rows_match(outcome.rows, want, True)
        elif kind == "cust":
            want = [k for k, o in orders.items() if o["o_c_id"] == step.arg]
            ok = queries.rows_match(outcome.rows, want, False)
        elif kind == "range":
            lo, hi = step.arg
            want = [[k, ol["ol_number"]] for k, o in orders.items()
                    for ol in o.get("o_orderline") or ()
                    if lo <= ol["ol_delivery_d"] < hi]
            ok = queries.rows_match(outcome.rows, want, False)
        elif kind == "delete":
            lo, hi = step.arg
            doomed = [k for k in range(lo, hi + 1) if k in orders]
            ok = outcome.rows == [len(doomed)]
            for k in doomed:
                del orders[k]
            self.acked_records += len(doomed)
        else:                                   # upsert, feed
            ok = outcome.rows == [len(step.records)]
            for record in step.records:
                orders[record["o_id"]] = record
                self.user_bytes += len(serialize(record))
            self.acked_records += len(step.records)
        access = workloads.access_of(step)
        lines = [line for line in outcome.plan.splitlines()
                 if "-search " in line or "data-scan " in line]
        ok = ok and len(lines) == len(access) and all(
            any(_ACCESS_LINE[method].format(dataset, index) in line
                for line in lines)
            for dataset, method, index in access)
        return ok

    # -- crash, restart, durability ------------------------------------------------

    def crash_restart_verify(self) -> "Restart":
        """Crash both nodes (``crash_node`` truncates the WAL to the last
        fsync and drops the memory components: the test itself discards
        the unflushed bytes), restart both, and compare a full scan with
        the model.  The restart is repeated from a copy of the same
        crashed directory — a recovery leaves flushed components behind,
        so a second crash of the recovered instance would replay less —
        and the median is reported; a restart of milliseconds is repeated
        more often, like a set-up."""
        cluster = self.db.cluster
        main = self.inputs.workload.main
        image = self.base_dir + ".crashed"
        out = Restart()
        while repeat_more(out.times_s, RESTART_REPEATS,
                          0.0 if self.inputs.reduced else 1.0):
            for node in cluster.nodes:
                cluster.crash_node(node.node_id)
            if not out.times_s:
                shutil.copytree(self.base_dir, image)
            else:
                shutil.rmtree(self.base_dir)
                shutil.copytree(image, self.base_dir)
            started = time.perf_counter()
            for node in cluster.nodes:
                with self._span("txn.restart_node"):
                    out.replayed += cluster.restart_node(node.node_id)
            count = self.db.query(f"SELECT VALUE COUNT(*) FROM {main} x;")
            out.times_s.append(time.perf_counter() - started)
            out.wrong += count != [len(self.model[main])]
        shutil.rmtree(image)
        out.checked = len(out.times_s)
        for dataset, want in self.model.items():
            got = {pk[0]: record for pk, record
                   in cluster.scan_dataset("Default." + dataset)}
            keys = got.keys() | want.keys()
            out.checked += len(keys)
            # missing (lost acknowledgement), phantom (deleted key back)
            # or stale (an older version) all count
            out.wrong += sum(1 for k in keys if got.get(k) != want.get(k))
        return out

    def disk_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(root, name))
                   for root, _, names in os.walk(self.base_dir)
                   for name in names)

    def live_bytes(self) -> int:
        return sum(len(serialize(r)) for records in self.model.values()
                   for r in records.values())

    def io(self):
        """Physical page I/O of all nodes since instance creation."""
        total = IOStats()
        for node in self.db.cluster.nodes:
            total = total + node.io_snapshot()
        return total

    def io_cost_us(self, before) -> float:
        """The model clock of a feed batch.  A feed runs no job, so there
        is no ``profile.simulated_us``; the cost model applied to the
        physical I/O the batch caused is what a job would have been
        charged for the same flushes and merges."""
        diff, cost = self.io().diff(before), self.db.cluster.config.cost
        return (diff.reads * cost.page_read_us
                + diff.writes * cost.page_write_us
                + diff.seq_reads * cost.seq_page_read_us
                + diff.seq_writes * cost.seq_page_write_us)

    def wal_bytes(self) -> int:
        return sum(n.log.tail_lsn for n in self.db.cluster.nodes)

    def close(self) -> None:
        self.db.close()


@dataclass
class Restart:
    times_s: list = field(default_factory=list)   # one per repeated restart
    replayed: int = 0           # WAL records replayed, over all repeats
    wrong: int = 0              # wrong COUNT(*) answers + wrong keys
    checked: int = 0            # COUNT(*) answers + keys compared


@dataclass
class Outcome:
    rows: list
    plan: str
    simulated_us: float
    wall_s: float


@dataclass
class OpLog:
    """What the timed ops of one run did."""

    op_s: list = field(default_factory=list)         # latency per op
    step_s: dict = field(default_factory=dict)       # step name -> [wall]
    simulated_us: float = 0.0
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.op_s)

    def walls(self, names) -> list:
        return [w for n in names for w in self.step_s.get(n, ())]


def run_ops(instance: Instance, ops: list, execute, log: OpLog,
            first_op_id: int = 0) -> None:
    """Closed loop, one client: the next op starts when the last one has
    returned and been checked.  An op's latency is the sum of its calls
    into the program; checking happens outside it."""
    tracer = instance.tracer
    complaints = 0
    for op_id, op in enumerate(ops, first_op_id):
        if tracer is not None:
            tracer.op_id = op_id
        latency, ok = 0.0, True
        try:
            for step in op:
                outcome = execute(step)
                latency += outcome.wall_s
                name = step.arg.name if step.kind == "query" else step.kind
                log.step_s.setdefault(name, []).append(outcome.wall_s)
                log.simulated_us += outcome.simulated_us
                ok = instance.check_and_apply(step, outcome) and ok
        except Exception:   # an op that raises is a failed op, not a crash
            ok = False
            if complaints < 3:
                traceback.print_exc()
                complaints += 1
        log.op_s.append(latency)
        log.failed += not ok


# -- the untraced run: end-to-end metrics ---------------------------------------------

def run_untraced(inputs: workloads.Inputs, work_dir: str) -> tuple:
    instance = Instance(os.path.join(work_dir, "main"), inputs)
    setups = [instance.setup_s]
    run_ops(instance, inputs.ops[:WARMUP_OPS], instance.execute, OpLog())
    log = OpLog()
    run_ops(instance, inputs.ops[WARMUP_OPS:], instance.execute, log)
    page_size = instance.db.cluster.config.page_size
    written = instance.io().total_writes * page_size + instance.wal_bytes()
    restart = instance.crash_restart_verify()
    metrics = {
        "ops_per_s": log.ops / sum(log.op_s),
        "op_p50_ms": median(log.op_s) * 1e3,
        "simulated_us_per_op": log.simulated_us / log.ops,
        "restart_s": median(restart.times_s),
        "write_amp": written / instance.user_bytes,
        "space_amp": instance.disk_bytes() / instance.live_bytes(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    instance.close()
    # set-up is repeated after the run so that the peak above is the
    # workload's own; the median keeps the first, cold one from deciding
    while repeat_more(setups, SETUP_REPEATS, 0.0 if inputs.reduced else 3.0):
        again = Instance(os.path.join(work_dir, f"setup{len(setups)}"),
                         inputs)
        setups.append(again.setup_s)
        again.close()
    metrics["setup_s"] = median(setups)
    return metrics, log.ops + restart.checked, log.failed + restart.wrong


# -- the traced run: per-layer metrics --------------------------------------------------

@dataclass
class TraceStats:
    """Per-statement facts only the step-by-step driver can see."""

    statements: int = 0
    rule_firings: int = 0
    index_plans: int = 0
    qerrors: list = field(default_factory=list)
    operator_tuples: int = 0
    network_tuples: int = 0
    rows: int = 0

    def add_statement(self, recorder, paths, profile, n_rows) -> None:
        self.statements += 1
        self.rule_firings += len(recorder.firings)
        self.index_plans += any(m["method"] != "primary-scan" for m in paths)
        self.rows += n_rows
        self.network_tuples += profile.connector_network_tuples
        for op in profile.operators:
            actual = op.total_tuples_out
            self.operator_tuples += actual
            if op.estimated_cardinality is not None:
                est = max(op.estimated_cardinality, 1.0)
                self.qerrors.append(max(est / max(actual, 1),
                                        max(actual, 1) / est))


def run_traced(inputs: workloads.Inputs, work_dir: str, trace_path: str,
               seed: int) -> tuple:
    n_timed = len(inputs.ops) - WARMUP_OPS
    prefix = inputs.ops[: WARMUP_OPS + math.ceil(n_timed / 3)]
    warm, timed = prefix[:WARMUP_OPS], prefix[WARMUP_OPS:]

    # the same prefix through the public API: the base for api.*,
    # api.residual_share and trace.overhead_share
    plain = Instance(os.path.join(work_dir, "plain"), inputs)
    run_ops(plain, warm, plain.execute, OpLog())
    plain_log = OpLog()
    run_ops(plain, timed, plain.execute, plain_log)
    plain.close()

    registry = get_registry()
    created = registry.snapshot()
    tracer = Tracer()
    instance = Instance(os.path.join(work_dir, "traced"), inputs, tracer)
    stats = TraceStats()

    def execute(step):
        return instance.execute_traced(step, stats)

    run_ops(instance, warm, execute, OpLog())
    stats = TraceStats()            # ``execute`` now fills this one
    first_span = len(tracer.spans)
    before = registry.snapshot()
    io = instance.io()
    wal = instance.wal_bytes()
    fsyncs = sum(n.log.flushes for n in instance.db.cluster.nodes)
    acked, user_bytes = instance.acked_records, instance.user_bytes
    log = OpLog()
    run_ops(instance, timed, execute, log, first_op_id=WARMUP_OPS)
    delta = registry.delta(before)
    since_created = registry.delta(created)
    cluster = instance.db.cluster
    ops = log.ops
    acked = instance.acked_records - acked

    def span_us(name):
        return tracer.durations_us(name, first_span)

    compile_names = ("lang.parse", "analysis.analyze", "lang.translate",
                     "algebricks.optimize", "algebricks.jobgen")
    compile_us = sum(sum(span_us(n)) for n in compile_names)
    run_job_us = span_us("hyracks.run_job")
    pump_us = span_us("feeds.pump")
    statement_us = sum(span_us("api.statement"))
    layer_calls_us = compile_us + sum(run_job_us) + sum(pump_us)
    plain_us = sum(plain_log.op_s) * 1e6
    jobs = delta.get("hyracks.jobs", 0)
    lookups = delta.get("lsm.searches", 0)
    hits = delta.get("buffer_cache.hits", 0)
    misses = delta.get("buffer_cache.misses", 0)
    searched = delta.get("lsm.components_searched", 0)
    skips = delta.get("lsm.bloom_skips", 0)
    key_hits = delta.get("hyracks.batch.key_cache_hits", 0)
    key_misses = delta.get("hyracks.batch.key_cache_misses", 0)
    stats_hits = delta.get("optimizer.stats_hits", 0)
    stats_misses = delta.get("optimizer.stats_misses", 0)
    feed = instance.feeds.feeds.get(FEED)
    metrics = {
        "api.read_p50_us": median(plain_log.walls(
            READ_KINDS + queries.QUERY_NAMES)) * 1e6,
        "api.write_p50_us": median(plain_log.walls(
            ("upsert", "delete"))) * 1e6,
        "api.op_tail_ms": percentile(
            plain_log.op_s, inputs.workload.tail_percentile) * 1e3,
        "api.residual_share": 1 - ratio(layer_calls_us, plain_us),
        "lang.parse_us": median(span_us("lang.parse")),
        "lang.translate_us": median(span_us("lang.translate")),
        "analysis.analyze_us": median(span_us("analysis.analyze")),
        "algebricks.optimize_us": median(span_us("algebricks.optimize")),
        "algebricks.jobgen_us": median(span_us("algebricks.jobgen")),
        "algebricks.compile_share": ratio(compile_us, statement_us),
        "algebricks.rule_firings_per_stmt":
            ratio(stats.rule_firings, stats.statements),
        "algebricks.index_plan_share":
            ratio(stats.index_plans, stats.statements),
        "algebricks.qerror_p50": median(stats.qerrors),
        "algebricks.qerror_max": max(stats.qerrors, default=0.0),
        "metadata.stats_hit_share":
            ratio(stats_hits, stats_hits + stats_misses),
        "hyracks.run_job_us": median(run_job_us),
        "hyracks.us_per_ktuple":
            ratio(sum(run_job_us), stats.operator_tuples / 1000),
        "hyracks.tuples_per_row": ratio(stats.operator_tuples, stats.rows),
        "hyracks.network_tuples_per_op": ratio(stats.network_tuples, ops),
        "hyracks.stages_per_job":
            ratio(delta.get("hyracks.executor.stages", 0), jobs),
        "hyracks.tasks_per_job":
            ratio(delta.get("hyracks.executor.tasks", 0), jobs),
        "hyracks.frames_per_job":
            ratio(delta.get("hyracks.pipeline.frames", 0), jobs),
        "hyracks.key_cache_hit_share": ratio(key_hits, key_hits + key_misses),
        "hyracks.sort_merge_passes": delta.get("sort.merge_passes", 0),
        "hyracks.reduced_grants": delta.get("memory.reduced_grants", 0),
        "hyracks.job_retries": delta.get("resilience.job_retries", 0),
        "storage.components_per_lookup": ratio(searched, lookups),
        "storage.bloom_skip_share": ratio(skips, skips + searched),
        "storage.cache_hit_share": ratio(hits, hits + misses),
        "storage.cache_evictions_per_op":
            ratio(delta.get("buffer_cache.evictions", 0), ops),
        "storage.pages_read_per_op":
            ratio(instance.io().diff(io).total_reads, ops),
        "storage.pages_written_per_op":
            ratio(instance.io().diff(io).total_writes, ops),
        "storage.flushes": since_created.get("lsm.flushes", 0),
        "storage.merges": since_created.get("lsm.merges", 0),
        "storage.entries_merged_per_entry_flushed": ratio(
            since_created.get("lsm.entries_merged", 0),
            since_created.get("lsm.entries_flushed", 0)),
        "storage.disk_components_end": sum(
            len(index.components)
            for node in cluster.nodes for part in node.partitions.values()
            for index in [part.primary] + [
                ix for _, ix in part.secondaries.values()]),
        "storage.array_postings_per_lookup": ratio(
            delta.get("index.array.postings", 0),
            delta.get("index.array.lookups", 0)),
        "storage.array_maint_entries_per_write": ratio(
            delta.get("index.array.maintenance.inserts", 0)
            + delta.get("index.array.maintenance.deletes", 0), acked),
        "txn.fsyncs_per_ack": ratio(
            sum(n.log.flushes for n in cluster.nodes) - fsyncs, acked),
        "txn.wal_bytes_per_user_byte": ratio(
            instance.wal_bytes() - wal, instance.user_bytes - user_bytes),
        "txn.aborts": sum(n.txn.aborts for n in cluster.nodes),
        "feeds.pump_us_per_record":
            ratio(sum(pump_us), feed.stats.records if feed else 0),
        "feeds.batches": feed.stats.batches if feed else 0,
        "feeds.replays": feed.stats.replays if feed else 0,
        "trace.overhead_share":
            ratio(statement_us + sum(pump_us), plain_us) - 1,
    }
    for name in queries.QUERY_NAMES:
        metrics[f"api.q.{name}_p50_ms"] = median(
            plain_log.step_s.get(name, ())) * 1e3

    restart = instance.crash_restart_verify()
    metrics["txn.replayed_records"] = (restart.replayed
                                       // len(restart.times_s))
    metrics["txn.replay_us_per_record"] = ratio(
        sum(tracer.durations_us("txn.restart_node")), restart.replayed)
    instance.close()
    started = time.perf_counter()
    with tracer.span("api.reopen"):
        reopened = connect(instance.base_dir)
    metrics["api.reopen_s"] = time.perf_counter() - started
    reopened.close()

    metrics.update(probe_layers(inputs, os.path.join(work_dir, "probe"),
                                seed, PROBE_RECORDS[inputs.reduced], tracer))
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(trace_path)
    return (metrics, ops + restart.checked,
            log.failed + plain_log.failed + restart.wrong)


def probe_layers(inputs: workloads.Inputs, base_dir: str, seed: int,
                 n: int, tracer: Tracer) -> dict:
    """Storage, ADM and transaction costs in isolation: a throwaway
    instance with the workload's DDL and its first ``n`` records of the
    main dataset — half written through the transactional path (WAL
    append + fsync), half straight into ``PartitionStorage``."""
    main = inputs.workload.main
    records = (inputs.load[main]
               or [r for op in inputs.ops for s in op for r in s.records])[:n]
    qualified = "Default." + main
    key = queries.PRIMARY_KEY[main]
    db = connect(base_dir, cluster_config())
    db.execute(inputs.ddl)
    cluster = db.cluster
    half = len(records) // 2
    for record in records[:half]:
        with tracer.span("txn.upsert"):
            cluster.insert_record(qualified, record, upsert=True)
    for record in records[half:]:
        p = cluster.partition_of_key((record[key],))
        storage = cluster.node_of_partition(p).get_partition(qualified, p)
        with tracer.span("storage.upsert"):
            storage.upsert(record)
    with tracer.span("storage.flush_dataset") as flush:
        cluster.flush_dataset(qualified)
    with tracer.span("storage.scan") as scan:
        scanned = sum(1 for _ in cluster.scan_dataset(qualified))
    with tracer.span("adm.serialize") as ser:
        raw = [serialize(r) for r in records]
    with tracer.span("adm.deserialize") as de:
        for buf in raw:
            deserialize(buf)
    rng = random.Random(seed)
    for record in rng.choices(records, k=len(records) // 2):
        with tracer.span("storage.get"):
            cluster.get_record(qualified, (record[key],))
    db.close()
    txn_us = median(tracer.durations_us("txn.upsert"))
    storage_us = median(tracer.durations_us("storage.upsert"))

    def per_record_us(span):
        return (span[2] - span[1]) / 1e3 / len(records)

    return {
        "txn.upsert_us": txn_us,
        "storage.upsert_us": storage_us,
        "txn.commit_us": txn_us - storage_us,
        "storage.flush_dataset_s": (flush[2] - flush[1]) / 1e9,
        "storage.scan_us_per_record":
            (scan[2] - scan[1]) / 1e3 / max(scanned, 1),
        "adm.serialize_us_per_record": per_record_us(ser),
        "adm.deserialize_us_per_record": per_record_us(de),
        "adm.bytes_per_record": sum(map(len, raw)) / len(raw),
        "storage.get_us": median(tracer.durations_us("storage.get")),
    }
