"""Serial / parallel executor equivalence (ISSUE-2).

The parallel executor must be *observably identical* to the serial one
in every dimension except wall-clock time: result tuples (including
order), the simulated clock (``profile.simulated_us``), per-operator
tuple counts and costs, and connector traffic.  Every job shape that
exercises a distinct code path runs here under both modes and is
compared field by field.

Identical is not the same as right: the SQL++ cases are also checked
against the independent reference evaluator in tests/reference.py.
"""

from repro import connect
from repro.common.config import ClusterConfig, ExecutorConfig, NodeConfig
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
from repro.hyracks.executor import make_worker_pool
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

VARIANTS = [
    ("serial", ExecutorConfig(mode="serial")),
    ("parallel", ExecutorConfig(mode="parallel")),
]


def make_config(executor: ExecutorConfig) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=2,
        partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=128, memory_component_pages=64,
                        sort_memory_frames=4, join_memory_frames=4,
                        group_memory_frames=4),
        frame_size=16,
        executor=executor,
    )


def observe(result):
    """Everything two executor runs must agree on, ready to compare."""
    profile = result.profile
    return {
        "tuples": list(result.tuples),
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


def run_all_variants(tmp_path, job_factory, setup=None):
    """Run ``job_factory(cluster)`` under every executor variant and
    assert each observation matches the serial baseline exactly."""
    observations = {}
    for name, executor in VARIANTS:
        cluster = ClusterController(str(tmp_path / name),
                                    make_config(executor))
        try:
            if setup is not None:
                setup(cluster)
            result = cluster.run_job(job_factory(cluster))
            observations[name] = observe(result)
        finally:
            cluster.close()
    baseline = observations["serial"]
    for name, _ in VARIANTS[1:]:
        assert observations[name] == baseline, (
            f"{name} diverged from the serial executor")
    return baseline


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
        baseline = run_all_variants(tmp_path, lambda cluster: chain(
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
        assert len(baseline["tuples"]) == 50

    def test_unnest_and_distinct(self, tmp_path):
        data = [(i % 7, list(range(i % 4))) for i in range(120)]
        baseline = run_all_variants(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (OneToOneConnector(), UnnestOp(ColumnRef(1))),
            (OneToOneConnector(), ProjectOp([0, 2])),
            (HashPartitionConnector([0]), DistinctOp()),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        assert baseline["tuples"]

    def test_fused_chain_charges_like_serial(self, tmp_path):
        """A long 1:1 streaming chain fused into one stage."""
        data = [(i,) for i in range(300)]
        run_all_variants(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (OneToOneConnector(), SelectOp(Const(True))),
            (OneToOneConnector(), AssignOp([
                FunctionCall("numeric_multiply",
                             [ColumnRef(0), Const(2)])])),
            (OneToOneConnector(), ProjectOp([1])),
            (OneToOneConnector(), ResultWriterOp()),
        ))


class TestBreakers:
    def test_spilling_sort_with_merge(self, tmp_path):
        """Multi-partition spill sort + global sort-merge gather."""
        data = [(i * 7919 % 500, i) for i in range(500)]
        baseline = run_all_variants(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (HashPartitionConnector([0]),
             ExternalSortOp([0], memory_frames=4)),
            (MergeConnector([0]), ResultWriterOp()),
        ))
        keys = [t[0] for t in baseline["tuples"]]
        assert keys == sorted(keys) and len(keys) == 500

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

        baseline = run_all_variants(tmp_path, factory)
        assert len(baseline["tuples"]) == 400

    def test_spilling_group_by(self, tmp_path):
        data = [(i % 150, i) for i in range(600)]
        baseline = run_all_variants(tmp_path, lambda cluster: chain(
            InMemorySourceOp(data),
            (HashPartitionConnector([0]), HashGroupByOp(
                [0], [AggregateCall("count", ColumnRef(1))], memory_frames=2)),
            (OneToOneConnector(), ResultWriterOp()),
        ))
        assert len(baseline["tuples"]) == 150


class TestDatasetScans:
    def test_scan_over_lsm_partitions(self, tmp_path):
        def setup(cluster):
            cluster.create_dataset("Users", ("id",))
            for i in range(300):
                cluster.insert_record(
                    "Users", {"id": i, "grp": i % 9, "name": f"u{i}"})
            cluster.flush_dataset("Users")

        baseline = run_all_variants(tmp_path, lambda cluster: chain(
            DatasetScanOp("Users"),
            (OneToOneConnector(), ResultWriterOp()),
        ), setup=setup)
        assert len(baseline["tuples"]) == 300


class TestSqlppEquivalence:
    """Full-stack equivalence: SQL++ through the optimizer, with a
    secondary-index scan, under each executor variant — and against the
    reference evaluator."""

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

    def _observed(self, tmp_path, name, executor):
        config = make_config(executor)
        out = []
        with connect(str(tmp_path / name), config) as db:
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
                out.append((result.rows, result.profile.simulated_us))
        return out

    def test_sqlpp_queries_identical_across_executors(self, tmp_path):
        baseline = self._observed(tmp_path, *VARIANTS[0])
        for name, executor in VARIANTS[1:]:
            assert self._observed(tmp_path, name, executor) == baseline, (
                f"{name} diverged on the SQL++ suite")


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
    """ISSUE-5 serial-equivalence guarantee: with one query at a time,
    the memory governor — sized either amply or exactly to the old
    per-operator defaults — must change nothing observable.  Grants
    charge no simulated time and an uncontended request receives its
    full ask, so results, tuple counts, and the simulated clock stay
    byte-identical across both executor modes and both sizings."""

    def _observe(self, tmp_path, name, executor, frames):
        config = make_config(executor)
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
            return observe(cluster.run_job(job))
        finally:
            cluster.close()

    def test_governor_sizing_changes_nothing(self, tmp_path):
        # tight = the admission floor (4) + the sort's 4-frame request
        observations = {
            (name, frames): self._observe(
                tmp_path, f"{name}-{frames}", executor, frames)
            for name, executor in VARIANTS
            for frames in (4096, 8)
        }
        baseline = observations[("serial", 4096)]
        keys = [t[0] for t in baseline["tuples"]]
        assert keys == sorted(keys) and len(keys) == 500
        for key, observation in observations.items():
            assert observation == baseline, (
                f"{key} diverged under the memory governor")


class TestExecutorKnobs:
    def test_default_mode_is_parallel_pipelined(self):
        import dataclasses

        assert ClusterConfig().executor.parallel
        # pipelined + compiled + batched is the only path: no other knob
        assert [f.name for f in dataclasses.fields(ExecutorConfig)] \
            == ["mode"]

    def test_worker_pool_sizing(self, tmp_path):
        pool = make_worker_pool(ClusterConfig(num_nodes=3))
        try:
            assert pool._max_workers == 3      # one worker per node
        finally:
            pool.shutdown()
        cluster = ClusterController(str(tmp_path / "c"),
                                    make_config(ExecutorConfig()))
        try:
            assert cluster.worker_pool() is cluster.worker_pool()  # cached
        finally:
            cluster.close()

    def test_config_round_trips_through_instance_marker(self, tmp_path):
        config = make_config(ExecutorConfig(mode="serial"))
        base = str(tmp_path / "db")
        with connect(base, config):
            pass
        with connect(base) as db:   # reopen: config comes from the marker
            assert db.cluster.config.executor.mode == "serial"
            assert db.cluster.config.frame_size == 16

    def test_pipeline_metrics_emitted(self, tmp_path):
        from repro.observability.metrics import get_registry

        registry = get_registry()
        registry.counter("hyracks.pipeline.frames").reset()
        registry.counter("hyracks.executor.stages").reset()
        # single partition so the width-1 source fuses with the select
        config = ClusterConfig(
            num_nodes=1, partitions_per_node=1, frame_size=16,
            executor=ExecutorConfig(mode="serial"))
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
