"""Run-file lifecycle: spill files never outlive their consumers.

ISSUE-5's bugfix surface: the page codec round-trips (including an
exactly-full page and the oversized-tuple error), readers delete their
temp file on exhaustion and refuse iteration after release, the merge
schedule is pass-structured (``ceil(log_fan_in(runs))`` passes, not the
old quadratic prepend schedule), and after any spilled job — sort,
group-by, join, LIMIT early-abandon, even with
faults injected mid-spill — zero temp files remain on any node.
"""

import pytest

from repro.adm.serializer import serialize_tuple
from repro.common.config import ClusterConfig, NodeConfig
from repro.common.errors import StorageError
from repro.hyracks import ClusterController, ColumnRef, JobSpecification
from repro.hyracks.connectors import (
    HashPartitionConnector,
    MergeConnector,
    OneToOneConnector,
)
from repro.hyracks.operators import (
    AggregateCall,
    ExternalSortOp,
    HashGroupByOp,
    HybridHashJoinOp,
    InMemorySourceOp,
    LimitOp,
    ResultWriterOp,
)
from repro.hyracks.operators.base import TaskContext
from repro.hyracks.operators.sort import compile_order_key
from repro.hyracks.profiler import PartitionCost
from repro.hyracks.runfile import RunFileWriter
from repro.observability.metrics import get_registry
from repro.resilience import (
    DiskIOFault,
    FaultInjector,
    FaultRule,
    FaultSchedule,
    NodeCrashFault,
)


def make_ctx(cluster):
    return TaskContext(cluster.nodes[0], cluster.config, PartitionCost())


def no_temp_files(cluster):
    return all(node.live_temp_files() == [] for node in cluster.nodes)


class TestPageCodec:
    def test_round_trip(self, single_node_cluster):
        ctx = make_ctx(single_node_cluster)
        data = [(i, f"val{i}", [i, i * 2]) for i in range(100)]
        writer = RunFileWriter(ctx, "rt")
        for tup in data:
            writer.write(tup)
        reader = writer.finish()
        assert list(reader) == data
        assert reader.num_tuples == 100

    def test_exactly_full_page(self, single_node_cluster):
        """Entries that fill a page to the last byte before the
        terminator word still round-trip on a single page."""
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        page_size = cluster.config.page_size

        def entry_len(s):
            return 4 + len(serialize_tuple((s,)))

        base = "abcd"
        e = entry_len(base)
        capacity = page_size - 4            # terminator word
        n = capacity // e
        rem = capacity - n * e
        data = [(base,)] * (n - 1)
        last = base + "x" * rem             # absorb the remainder
        assert entry_len(last) == e + rem   # serializer is byte-linear
        data.append((last,))

        writer = RunFileWriter(ctx, "full")
        for tup in data:
            writer.write(tup)
        reader = writer.finish()
        assert reader.num_pages == 1
        assert list(reader) == data

    def test_oversized_tuple_rejected(self, single_node_cluster):
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        writer = RunFileWriter(ctx, "big")
        with pytest.raises(StorageError, match="exceeds"):
            writer.write(("x" * cluster.config.page_size,))
        writer.finish().close()

    def test_empty_run_round_trips(self, single_node_cluster):
        ctx = make_ctx(single_node_cluster)
        reader = RunFileWriter(ctx, "empty").finish()
        assert list(reader) == []
        assert no_temp_files(single_node_cluster)


class TestReaderLifecycle:
    def test_exhaustion_deletes_the_file(self, single_node_cluster):
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        writer = RunFileWriter(ctx, "ex")
        for i in range(50):
            writer.write((i,))
        reader = writer.finish()
        assert cluster.nodes[0].live_temp_files()   # exists while live
        assert len(list(reader)) == 50
        assert reader.released
        assert no_temp_files(cluster)

    def test_close_is_idempotent(self, single_node_cluster):
        ctx = make_ctx(single_node_cluster)
        reader = RunFileWriter(ctx, "idem").finish()
        reader.close()
        reader.close()
        assert no_temp_files(single_node_cluster)

    def test_iterating_after_release_raises(self, single_node_cluster):
        ctx = make_ctx(single_node_cluster)
        writer = RunFileWriter(ctx, "late")
        writer.write((1,))
        reader = writer.finish()
        reader.close()
        with pytest.raises(StorageError, match="after release"):
            list(reader)

    def test_release_mid_read_raises_on_next_page(self,
                                                  single_node_cluster):
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        writer = RunFileWriter(ctx, "mid")
        for i in range(2000):               # guaranteed multi-page
            writer.write((i, f"payload{i}"))
        reader = writer.finish()
        assert reader.num_pages > 1
        it = iter(reader)
        next(it)
        reader.close()
        with pytest.raises(StorageError, match="released mid-read"):
            for _ in it:
                pass

    def test_partial_consumer_leaks_nothing_when_closed(
            self, single_node_cluster):
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        writer = RunFileWriter(ctx, "part")
        for i in range(100):
            writer.write((i,))
        reader = writer.finish()
        it = iter(reader)
        next(it)
        reader.close()                      # LIMIT-style early abandon
        assert no_temp_files(cluster)


class TestMergeSchedule:
    def _spilled_sort(self, cluster, data, memory_frames):
        op = ExternalSortOp([0], memory_frames=memory_frames)
        job = JobSpecification()
        src = job.add_operator(InMemorySourceOp(data))
        sort = job.add_operator(op)
        sink = job.add_operator(ResultWriterOp())
        job.connect(OneToOneConnector(), src, sort)
        job.connect(OneToOneConnector(), sort, sink)
        result = cluster.run_job(job)
        return op, result

    def test_pass_count_is_logarithmic(self, single_node_cluster):
        """budget 32 tuples, 500 input tuples -> 16 runs at fan-in 2:
        exactly ceil(log2(16)) = 4 passes, not the 15 chained merges
        the old prepend schedule degenerated into."""
        before = get_registry().counter("sort.merge_passes").value
        data = [(i * 7919 % 500, i) for i in range(500)]
        op, result = self._spilled_sort(single_node_cluster, data,
                                        memory_frames=2)
        runs = op.last_run_counts[-1]
        assert runs == 16
        expected = ExternalSortOp.expected_merge_passes(runs, fan_in=2)
        assert op.last_merge_passes == expected == 4
        assert get_registry().counter("sort.merge_passes").value \
            == before + expected
        keys = [t[0] for t in result.tuples]
        assert keys == sorted(keys) and len(keys) == 500
        assert no_temp_files(single_node_cluster)

    def test_single_pass_when_runs_fit_fan_in(self, single_node_cluster):
        data = [(i * 31 % 97, i) for i in range(150)]
        op, result = self._spilled_sort(single_node_cluster, data,
                                        memory_frames=4)   # fan-in 4
        runs = op.last_run_counts[-1]
        assert 1 < runs <= 4
        assert op.last_merge_passes == 1
        assert no_temp_files(single_node_cluster)

    def test_expected_merge_passes_math(self):
        expected = ExternalSortOp.expected_merge_passes
        assert expected(1, 4) == 1
        assert expected(4, 4) == 1
        assert expected(5, 4) == 2
        assert expected(16, 4) == 2        # exact power: no float slop
        assert expected(17, 4) == 3
        assert expected(1024, 2) == 10

    def test_merge_iter_early_abandon_releases_runs(
            self, single_node_cluster):
        cluster = single_node_cluster
        ctx = make_ctx(cluster)
        op = ExternalSortOp([0])
        runs = []
        for r in range(3):
            writer = RunFileWriter(ctx, f"run{r}")
            for i in range(50):
                writer.write((r * 50 + i,))
            runs.append(writer.finish())
        it = op._merge_iter(ctx, runs, compile_order_key([0], [False]))
        assert next(it) == (0,)
        it.close()                          # LIMIT abandons the merge
        assert no_temp_files(cluster)


def spill_config():
    return ClusterConfig(
        num_nodes=2, partitions_per_node=2, frame_size=16,
        node=NodeConfig(buffer_cache_pages=128, memory_component_pages=64,
                        sort_memory_frames=2, join_memory_frames=2,
                        group_memory_frames=2),
    )


class TestEndToEndZeroLeaks:
    def test_spilled_sort_leaves_no_temp_files(self, tmp_path):
        cluster = ClusterController(str(tmp_path / "c"), spill_config())
        try:
            job = JobSpecification()
            src = job.add_operator(InMemorySourceOp(
                [(i * 7919 % 600, i) for i in range(600)]))
            sort = job.add_operator(ExternalSortOp([0]))
            sink = job.add_operator(ResultWriterOp())
            job.connect(HashPartitionConnector([0]), src, sort)
            job.connect(MergeConnector([0]), sort, sink)
            result = cluster.run_job(job)
            assert len(result.tuples) == 600
            assert no_temp_files(cluster)
        finally:
            cluster.close()

    def test_spilled_sort_with_limit(self, tmp_path):
        cluster = ClusterController(str(tmp_path / "c"), spill_config())
        try:
            job = JobSpecification()
            src = job.add_operator(InMemorySourceOp(
                [(i * 13 % 400, i) for i in range(400)]))
            sort = job.add_operator(ExternalSortOp([0]))
            limit = job.add_operator(LimitOp(5))
            sink = job.add_operator(ResultWriterOp())
            job.connect(HashPartitionConnector([0]), src, sort)
            job.connect(MergeConnector([0]), sort, limit)
            job.connect(OneToOneConnector(), limit, sink)
            result = cluster.run_job(job)
            assert len(result.tuples) == 5
            assert no_temp_files(cluster)
        finally:
            cluster.close()

    def test_spilled_group_by_leaves_no_temp_files(self, tmp_path):
        cluster = ClusterController(str(tmp_path / "c"), spill_config())
        try:
            job = JobSpecification()
            src = job.add_operator(InMemorySourceOp(
                [(i % 200, i) for i in range(800)]))
            grp = job.add_operator(HashGroupByOp(
                [0], [AggregateCall("count", ColumnRef(1))]))
            sink = job.add_operator(ResultWriterOp())
            job.connect(HashPartitionConnector([0]), src, grp)
            job.connect(OneToOneConnector(), grp, sink)
            result = cluster.run_job(job)
            assert len(result.tuples) == 200
            assert no_temp_files(cluster)
        finally:
            cluster.close()

    def test_spilled_join_leaves_no_temp_files(self, tmp_path):
        cluster = ClusterController(str(tmp_path / "c"), spill_config())
        try:
            job = JobSpecification()
            left = job.add_operator(InMemorySourceOp(
                [(i % 100, i) for i in range(500)]))
            right = job.add_operator(InMemorySourceOp(
                [(i, i * 10) for i in range(100)]))
            join = job.add_operator(HybridHashJoinOp([0], [0]))
            sink = job.add_operator(ResultWriterOp())
            job.connect(HashPartitionConnector([0]), left, join, 0)
            job.connect(HashPartitionConnector([0]), right, join, 1)
            job.connect(OneToOneConnector(), join, sink)
            result = cluster.run_job(job)
            assert len(result.tuples) == 500
            assert no_temp_files(cluster)
        finally:
            cluster.close()


class TestFaultedSpills:
    """A fault striking mid-spill abandons run files; the retry loop's
    between-attempt purge (plus crash cleanup) must leave zero temp
    files once the job succeeds."""

    def _sort_job(self, n=600):
        job = JobSpecification()
        src = job.add_operator(InMemorySourceOp(
            [(i * 7919 % n, i) for i in range(n)]))
        sort = job.add_operator(ExternalSortOp([0]))
        sink = job.add_operator(ResultWriterOp())
        job.connect(HashPartitionConnector([0]), src, sort)
        job.connect(MergeConnector([0]), sort, sink)
        return job

    def test_disk_fault_mid_spill_purges_run_files(self, tmp_path):
        injector = FaultInjector(FaultSchedule(rules=[
            # the only disk.write_page hits in this job are run-file
            # pages, so hit 5 lands mid-spill with runs already on disk
            FaultRule(site="disk.write_page", fault=DiskIOFault,
                      at_hit=5),
        ]))
        cluster = ClusterController(str(tmp_path / "c"), spill_config(),
                                    injector=injector)
        try:
            before = get_registry().snapshot()
            result = cluster.run_job(self._sort_job())
            delta = get_registry().delta(before)
            assert delta.get("resilience.job_retries") == 1
            assert delta.get("hyracks.temp_files_purged", 0) >= 1
            assert len(result.tuples) == 600
            assert no_temp_files(cluster)
        finally:
            injector.disarm()
            cluster.close()

    def test_node_crash_mid_spill_leaves_no_temp_files(self, tmp_path):
        injector = FaultInjector(FaultSchedule(rules=[
            FaultRule(site="disk.write_page", fault=NodeCrashFault,
                      at_hit=5, node=0),
        ]))
        cluster = ClusterController(str(tmp_path / "c"), spill_config(),
                                    injector=injector)
        try:
            result = cluster.run_job(self._sort_job())
            assert len(result.tuples) == 600
            assert no_temp_files(cluster)
            for node in cluster.nodes:
                assert node.memory.used == 0
        finally:
            injector.disarm()
            cluster.close()
