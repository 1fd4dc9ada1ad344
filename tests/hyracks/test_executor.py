"""The Hyracks executor: right answers, and the same observations twice.

Every job shape that exercises a distinct code path (fused streaming
chains, spilling breakers, LSM scans, SQL++ through the optimizer) is
checked two ways:

* its rows equal a plain-Python expectation (the SQL++ cases: the
  independent reference evaluator in tests/reference.py);
* two runs on fresh clusters observe the same thing in every dimension
  except wall-clock time: result tuples and their order, the simulated
  clock (``profile.simulated_us``), per-operator tuple counts and
  costs, and connector traffic.
"""

import threading

from repro import connect
from repro.common.config import ClusterConfig, NodeConfig
from repro.hyracks import (
    ClusterController,
    ColumnRef,
    Const,
    FunctionCall,
    HashPartitionConnector,
    JobSpecification,
    MergeConnector,
    OneToOneConnector,
    build_stages,
)
from repro.hyracks.operators import (
    AssignOp,
    DatasetScanOp,
    DistinctOp,
    ExternalSortOp,
    HashGroupByOp,
    AggregateCall,
    HybridHashJoinOp,
    InMemorySourceOp,
    LimitOp,
    ProjectOp,
    ResultWriterOp,
    SelectOp,
    UnnestOp,
)
from tests.reference import assert_same_rows, reference_rows


def make_config() -> ClusterConfig:
    return ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=128, memory_component_pages=64,
                        sort_memory_frames=4, join_memory_frames=4,
                        group_memory_frames=4),
        frame_size=16,
    )


def observe(rows, profile):
    """Everything two runs of one job must agree on, ready to compare."""
    return {
        "tuples": list(rows),
        "simulated_us": profile.simulated_us,
        "operators": [
            (op.name,
             {p: (c.tuples_in, c.tuples_out, c.cpu_us, c.io_us,
                  c.network_us)
              for p, c in sorted(op.partitions.items())})
            for op in profile.operators
        ],
        "network_tuples": profile.connector_network_tuples,
    }


def run_twice(tmp_path, job_factory, setup=None):
    """Run ``job_factory(cluster)`` on two fresh clusters, assert the two
    observations are identical, and return one."""
    observations = []
    for run in ("first", "second"):
        cluster = ClusterController(str(tmp_path / run), make_config())
        try:
            if setup is not None:
                setup(cluster)
            result = cluster.run_job(job_factory(cluster))
            observations.append(observe(result.tuples, result.profile))
        finally:
            cluster.close()
    assert observations[0] == observations[1], "two runs diverged"
    return observations[0]


def chain(*ops_and_connectors):
    job = JobSpecification()
    prev = None
    for item in ops_and_connectors:
        if prev is None:
            prev = job.add_operator(item)
            continue
        connector, op = item
        op_id = job.add_operator(op)
        job.connect(connector, prev, op_id)
        prev = op_id
    return job


class TestStreamingChains:
    def test_scan_select_project_limit(self, tmp_path):
        data = [(i, i * 3 % 97, [i, i + 1]) for i in range(200)]
        baseline = run_twice(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (OneToOneConnector(),
             SelectOp(FunctionCall("gt", [ColumnRef(1), Const(10)]))),
            (OneToOneConnector(), AssignOp([
                FunctionCall("numeric_add", [ColumnRef(0), Const(1)]),
            ])),
            (OneToOneConnector(), ProjectOp([0, 1, 3])),
            (OneToOneConnector(), LimitOp(50, offset=5)),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        selected = [(i, x, i + 1) for i, x, _ in data if x > 10]
        assert baseline["tuples"] == selected[5:55]

    def test_unnest_and_distinct(self, tmp_path):
        data = [(i % 7, list(range(i % 4))) for i in range(120)]
        baseline = run_twice(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (OneToOneConnector(), UnnestOp(ColumnRef(1))),
            (OneToOneConnector(), ProjectOp([0, 2])),
            (HashPartitionConnector([0]), DistinctOp()),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        assert sorted(baseline["tuples"]) == sorted(
            {(a, e) for a, items in data for e in items})

    def test_fused_chain(self, tmp_path):
        """A long 1:1 streaming chain fused into one stage."""
        data = [(i,) for i in range(300)]
        baseline = run_twice(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (OneToOneConnector(), SelectOp(Const(True))),
            (OneToOneConnector(), AssignOp([
                FunctionCall("numeric_multiply",
                             [ColumnRef(0), Const(2)])])),
            (OneToOneConnector(), ProjectOp([1])),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        assert baseline["tuples"] == [(2 * i,) for i in range(300)]


class TestBreakers:
    def test_spilling_sort_with_merge(self, tmp_path):
        """Multi-partition spill sort + global sort-merge gather."""
        data = [(i * 7919 % 500, i) for i in range(500)]
        baseline = run_twice(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (HashPartitionConnector([0]),
             ExternalSortOp([0], memory_frames=4)),
            (MergeConnector([0]), ResultWriterOp()),
        ))
        # 7919 is prime to 500, so the keys are distinct
        assert baseline["tuples"] == sorted(data)

    def test_spilling_hash_join(self, tmp_path):
        left = [(i % 80, i) for i in range(400)]
        right = [(i, i * 10) for i in range(80)]

        def factory(cluster):
            job = JobSpecification()
            l_id = job.add_operator(InMemorySourceOp(left))
            r_id = job.add_operator(InMemorySourceOp(right))
            join = job.add_operator(
                HybridHashJoinOp([0], [0], memory_frames=2))
            sink = job.add_operator(ResultWriterOp())
            job.connect(HashPartitionConnector([0]), l_id, join, 0)
            job.connect(HashPartitionConnector([0]), r_id, join, 1)
            job.connect(OneToOneConnector(), join, sink)
            return job

        baseline = run_twice(tmp_path, factory)
        assert sorted(baseline["tuples"]) == sorted(
            l + r for l in left for r in right if l[0] == r[0])

    def test_spilling_group_by(self, tmp_path):
        data = [(i % 150, i) for i in range(600)]
        baseline = run_twice(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (HashPartitionConnector([0]), HashGroupByOp(
                [0], [AggregateCall("count", ColumnRef(1))], memory_frames=2)),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        assert sorted(baseline["tuples"]) == [(k, 4) for k in range(150)]


class TestDatasetScans:
    def test_scan_over_lsm_partitions(self, tmp_path):
        records = [{"id": i, "grp": i % 9, "name": f"u{i}"}
                   for i in range(300)]

        def setup(cluster):
            cluster.create_dataset("Users", ("id",))
            for record in records:
                cluster.insert_record("Users", record)
            cluster.flush_dataset("Users")

        baseline = run_twice(tmp_path, lambda cluster: chain(
            DatasetScanOp("Users"),
            (OneToOneConnector(), ResultWriterOp()),
        ), setup=setup)
        assert sorted(baseline["tuples"], key=lambda t: t[0]) == [
            (r["id"], r) for r in records]


class TestSqlpp:
    """Full stack: SQL++ through the optimizer, with a secondary-index
    scan, against the reference evaluator — and the same twice."""

    DDL = """
        CREATE TYPE ItemType AS { id: int, cat: string, price: int };
        CREATE DATASET Items(ItemType) PRIMARY KEY id;
        CREATE INDEX byCat ON Items(cat);
    """
    ITEMS = [{"id": i, "cat": "c%d" % (i % 5), "price": i * 13 % 1000}
             for i in range(120)]
    #: (query, whether its ORDER BY is total); prices are pairwise
    #: distinct (13 is invertible mod 1000)
    QUERIES = [
        ("SELECT VALUE i.id FROM Items i WHERE i.cat = 'c3';", False),
        ("SELECT cat, COUNT(*) AS n FROM Items i "
         "GROUP BY i.cat AS cat ORDER BY cat;", True),
        ("SELECT VALUE i.price FROM Items i "
         "ORDER BY i.price DESC LIMIT 7;", True),
        ("SELECT a.id AS x, b.id AS y FROM Items a, Items b "
         "WHERE a.id = b.id AND a.price > 900 ORDER BY x;", True),
    ]

    def _observed(self, tmp_path, name):
        out = []
        with connect(str(tmp_path / name), make_config()) as db:
            db.execute(self.DDL)
            for item in self.ITEMS:
                db.execute('INSERT INTO Items ({"id": %d, "cat": "%s", '
                           '"price": %d});'
                           % (item["id"], item["cat"], item["price"]))
            db.flush_dataset("Items")
            for query, total in self.QUERIES:
                result = db.execute(query)
                assert_same_rows(
                    result.rows,
                    reference_rows(query, {"Items": self.ITEMS},
                                   db.metadata),
                    ordered=total)
                out.append(observe(result.rows, result.profile))
        return out

    def test_sqlpp_queries_match_reference_and_repeat(self, tmp_path):
        assert self._observed(tmp_path, "first") \
            == self._observed(tmp_path, "second")


class TestStagePlanning:
    def test_streaming_chain_fuses_into_one_stage(self):
        job = chain(
            InMemorySourceOp([(1,)]),
            (OneToOneConnector(), SelectOp(Const(True))),
            (OneToOneConnector(), ProjectOp([0])),
            (OneToOneConnector(), ResultWriterOp()),
        )
        job.validate()
        # at width 1, source+select+project all match and fuse; the
        # result writer is a breaker and gets its own stage
        stages = build_stages(job, num_partitions=1)
        assert [len(s.op_ids) for s in stages] == [3, 1]
        # at width 4 the width-1 source can't fuse with the full-width
        # select, but select+project still do
        stages = build_stages(job, num_partitions=4)
        assert [len(s.op_ids) for s in stages] == [1, 2, 1]

    def test_width_change_breaks_fusion(self):
        job = chain(
            DatasetScanOp("D"),                       # full width
            (OneToOneConnector(), SelectOp(Const(True))),
            (HashPartitionConnector([0]), DistinctOp()),
            (OneToOneConnector(), ResultWriterOp()),
        )
        job.validate()
        stages = build_stages(job, num_partitions=4)
        assert [len(s.op_ids) for s in stages] == [2, 1, 1]

    def test_breakers_declare_themselves(self):
        assert not ExternalSortOp([0]).streaming
        assert not HashGroupByOp([0], [AggregateCall("count", ColumnRef(1))]).streaming
        assert not HybridHashJoinOp([0], [0]).streaming
        assert not ResultWriterOp().streaming
        assert SelectOp(Const(True)).streaming
        assert ProjectOp([0]).streaming


class TestGovernorEquivalence:
    """The governor's equivalence guarantee: with one query at a time, the
    memory governor — sized either amply or exactly to the old
    per-operator defaults — must change nothing observable.  Grants
    charge no simulated time and an uncontended request receives its
    full ask, so results, tuple counts, and the simulated clock stay
    byte-identical across both sizings."""

    def _observe(self, tmp_path, name, frames):
        config = make_config()
        config.node.query_memory_frames = frames
        data = [(i * 7919 % 500, i) for i in range(500)]
        cluster = ClusterController(str(tmp_path / name), config)
        try:
            job = chain(
                InMemorySourceOp(data),
                (HashPartitionConnector([0]),
                 ExternalSortOp([0], memory_frames=4)),
                (MergeConnector([0]), ResultWriterOp()),
            )
            result = cluster.run_job(job)
            return observe(result.tuples, result.profile)
        finally:
            cluster.close()

    def test_governor_sizing_changes_nothing(self, tmp_path):
        # tight = the admission floor (4) + the sort's 4-frame request
        observations = {
            frames: self._observe(tmp_path, f"run-{frames}", frames)
            for frames in (4096, 8)
        }
        baseline = observations[4096]
        keys = [t[0] for t in baseline["tuples"]]
        assert keys == sorted(keys) and len(keys) == 500
        assert observations[8] == baseline, (
            "the tight governor changed an observation")


class TestConfigAndMetrics:
    def test_config_round_trips_through_instance_marker(self, tmp_path):
        base = str(tmp_path / "db")
        with connect(base, make_config()):
            pass
        with connect(base) as db:   # reopen: config comes from the marker
            assert db.cluster.config == make_config()

    def test_pipeline_metrics_emitted(self, tmp_path):
        from repro.observability.metrics import get_registry

        registry = get_registry()
        registry.counter("hyracks.pipeline.frames").reset()
        registry.counter("hyracks.executor.stages").reset()
        # single partition so the width-1 source fuses with the select
        config = ClusterConfig(num_nodes=1, partitions_per_node=1,
                               frame_size=16)
        cluster = ClusterController(str(tmp_path / "m"), config)
        try:
            job = chain(
                InMemorySourceOp([(i,) for i in range(100)]),
                (OneToOneConnector(), SelectOp(Const(True))),
                (OneToOneConnector(), ResultWriterOp()),
            )
            cluster.run_job(job)
        finally:
            cluster.close()
        assert registry.counter("hyracks.executor.stages").value >= 2
        # 100 tuples / frame_size 16 -> 7 frames through the fused chain
        assert registry.counter("hyracks.pipeline.frames").value == 7


class TestConcurrentSessions:
    """One job runs its tasks inline, but concurrent sessions call
    ``run_job`` from several threads; ``NodeController.lock`` is what
    keeps their tasks on one node from interleaving."""

    class RecordingLock:
        """The node's re-entrant lock, logging each outermost acquire and
        release (appended while the lock is held, so one node's log is in
        lock order)."""

        def __init__(self, node_id, log):
            self._lock = threading.RLock()
            self._depth = 0
            self.node_id = node_id
            self.log = log

        def __enter__(self):
            self._lock.acquire()
            self._depth += 1
            if self._depth == 1:
                self.log.append(
                    (self.node_id, "acquire", threading.get_ident()))
            return self

        def __exit__(self, *exc):
            self._depth -= 1
            if self._depth == 0:
                self.log.append(
                    (self.node_id, "release", threading.get_ident()))
            self._lock.release()

    def test_tasks_on_one_node_never_overlap(self, tmp_path):
        config = make_config()
        cluster = ClusterController(str(tmp_path / "c"), config)
        log: list = []
        for node in cluster.nodes:
            node.lock = self.RecordingLock(node.node_id, log)
        datasets = [[(i * 7919 % 600, q) for i in range(600)]
                    for q in range(2)]
        results: dict = {}
        errors: list = []
        start = threading.Barrier(2)

        def session(q):
            try:
                start.wait(timeout=60)
                results[q] = (threading.get_ident(), cluster.run_job(chain(
                    InMemorySourceOp(datasets[q]),
                    (HashPartitionConnector([0]),
                     ExternalSortOp([0], memory_frames=2)),
                    (MergeConnector([0]), ResultWriterOp()),
                )))
            except Exception as exc:  # lint: allow-swallow
                errors.append(exc)

        threads = [threading.Thread(target=session, args=(q,))
                   for q in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            cluster.close()
        assert not errors and not any(t.is_alive() for t in threads)
        for q in range(2):
            assert results[q][1].tuples == sorted(datasets[q])
        for node in cluster.nodes:
            events = [(kind, ident) for node_id, kind, ident in log
                      if node_id == node.node_id]
            # acquire and release alternate, each pair on one thread: no
            # task started on this node while another one was running
            assert events[0::2] == [("acquire", i) for _, i in events[0::2]]
            assert events[1::2] == [("release", i) for _, i in events[0::2]]
            # every task of both jobs on this node went through the lock
            for ident, result in results.values():
                tasks = sum(
                    1 for stage in result.profile.stages
                    for p in range(stage["width"])
                    if cluster.node_of_partition(p) is node)
                assert events[0::2].count(("acquire", ident)) == tasks > 0
