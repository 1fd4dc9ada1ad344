"""Crash-point tests: kill a node at every WAL flush boundary.

Each entity transaction forces the log exactly once (at ENTITY_COMMIT),
so during a K-record insert sequence the ``wal.flush`` site is hit K
times — and a crash scheduled at hit N must leave exactly the first
N - 1 records durable.  The parameterized sweep below proves that for
every boundary: post-recovery contents == the committed prefix, and the
at-least-once retry of the interrupted insert then converges to the full
dataset.
"""

import pytest

from repro.adm.values import APoint, ARectangle
from repro.common.config import ClusterConfig, NodeConfig
from repro.hyracks.cluster import ClusterController
from repro.observability.metrics import get_registry
from repro.resilience import (
    FaultInjector,
    FaultRule,
    FaultSchedule,
    NodeCrashFault,
    NodeState,
)
from repro.storage.dataset_storage import SecondaryIndexSpec

RECORDS = 6


@pytest.fixture
def single_node(tmp_path):
    injector = FaultInjector()
    cluster = ClusterController(
        str(tmp_path / "cluster"),
        ClusterConfig(num_nodes=1, partitions_per_node=1),
        injector=injector,
    )
    cluster.create_dataset("Users", ("id",))
    yield cluster, injector
    cluster.close()


def crash_at_flush(injector, hit, node=0):
    injector.arm(FaultSchedule(rules=[
        FaultRule(site="wal.flush", fault=NodeCrashFault, at_hit=hit,
                  node=node),
    ]))


class TestEveryFlushBoundary:
    @pytest.mark.parametrize("crash_at", range(1, RECORDS + 1))
    def test_post_recovery_contents_equal_committed_prefix(
            self, single_node, crash_at):
        cluster, injector = single_node
        crash_at_flush(injector, crash_at)
        before = get_registry().snapshot()

        interrupted = None
        for i in range(RECORDS):
            record = {"id": i, "alias": f"u{i}"}
            try:
                cluster.insert_record("Users", record)
            except NodeCrashFault as fault:
                interrupted = i
                assert fault.node == 0
                cluster.handle_fault(fault)   # crash + restart + replay
                # the recovered node holds exactly the committed prefix:
                # commits 1..crash_at-1 were fsynced, the interrupted
                # transaction's records died in the truncated WAL tail
                ids = sorted(rec["id"] for _, rec in
                             cluster.scan_dataset("Users"))
                assert ids == list(range(crash_at - 1))
                # at-least-once: retry the interrupted insert
                cluster.insert_record("Users", record)

        assert interrupted == crash_at - 1   # hit N fires in insert N
        assert cluster.nodes[0].state is NodeState.ALIVE
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(RECORDS))

        delta = get_registry().delta(before)
        assert delta.get("resilience.node_crashes") == 1
        assert delta.get("resilience.node_restarts") == 1
        assert delta.get("resilience.wal_replays") == 1
        assert delta.get("resilience.wal_records_replayed",
                         0) == crash_at - 1
        assert delta.get("resilience.faults.node_crash") == 1

    def test_flushed_components_survive_without_replay(self, single_node):
        """Records sealed into a disk component before the crash are not
        re-replayed from the WAL — only the memory-resident suffix is."""
        cluster, injector = single_node
        for i in range(4):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})
        cluster.flush_dataset("Users")       # ids 0..3 now durable (LSM)
        for i in range(4, RECORDS):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})

        injector.arm(FaultSchedule())        # nothing scheduled
        before = get_registry().snapshot()
        cluster.crash_node(0)
        assert cluster.nodes[0].state is NodeState.FAILED
        replayed = cluster.restart_node(0)

        assert replayed == RECORDS - 4       # only the WAL-only suffix
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(RECORDS))
        delta = get_registry().delta(before)
        assert delta.get("resilience.wal_records_replayed") == RECORDS - 4

    def test_crash_and_restart_are_idempotent(self, single_node):
        cluster, _ = single_node
        cluster.insert_record("Users", {"id": 1, "alias": "a"})
        cluster.crash_node(0)
        cluster.crash_node(0)                # second crash: no-op
        cluster.restart_node(0)
        assert cluster.restart_node(0) == 0  # already alive: no-op
        assert [rec["id"] for _, rec in cluster.scan_dataset("Users")] == [1]

    def test_restart_decodes_each_log_record_once(self, single_node,
                                                  monkeypatch):
        """Restart reads the WAL in one pass: the replay scan also finds
        the last checkpoint's low-water mark and the largest transaction
        id, which new transaction ids continue past."""
        from repro.txn import LogRecord

        cluster, _ = single_node
        for i in range(4):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})
        cluster.flush_dataset("Users")
        cluster.checkpoint()
        for i in range(4, RECORDS):
            cluster.insert_record("Users", {"id": i, "alias": f"u{i}"})
        decodes = 0
        decode = LogRecord.decode.__func__

        def counting(cls, body, lsn):
            nonlocal decodes
            decodes += 1
            return decode(cls, body, lsn)

        monkeypatch.setattr(LogRecord, "decode", classmethod(counting))
        cluster.crash_node(0)
        assert cluster.restart_node(0) == RECORDS - 4   # the unflushed suffix
        monkeypatch.undo()
        records = list(cluster.nodes[0].log.scan())
        assert decodes == len(records)
        assert cluster.nodes[0].txn.next_txn_id() > max(
            r.txn_id for r in records)


INDEXED_RECORDS = 40


def located(i):
    return {"id": i, "age": i % 7,
            "loc": APoint(float(i % 10), float(i // 10))}


class TestEveryFlushBoundaryWithLSMIndexes:
    """The sweep again over a primary with an R-tree and a B+ tree
    secondary, under a memory budget (one 512-byte page) small enough
    that components flush and merge inside the insert sequence — so the
    crash lands between flushes, merges and manifest saves of every
    index kind, and recovery reopens them all."""

    @pytest.mark.parametrize("crash_at", range(1, INDEXED_RECORDS + 1))
    def test_scan_and_window_see_the_committed_prefix(self, tmp_path,
                                                      crash_at):
        injector = FaultInjector()
        cluster = ClusterController(
            str(tmp_path / "cluster"),
            ClusterConfig(num_nodes=1, partitions_per_node=1, page_size=512,
                          node=NodeConfig(memory_component_pages=1)),
            injector=injector,
        )
        cluster.create_dataset("Users", ("id",))
        cluster.create_index("Users", SecondaryIndexSpec(
            "byLoc", "rtree", ("loc",)))
        cluster.create_index("Users", SecondaryIndexSpec(
            "byAge", "btree", ("age",)))
        crash_at_flush(injector, crash_at)
        window = ARectangle(APoint(2.0, 0.0), APoint(6.0, 9.0))
        before = get_registry().snapshot()

        def assert_holds(ids):
            ps = cluster.nodes[0].get_partition("Users", 0)
            assert sorted(pk[0] for pk, _ in ps.scan()) == ids
            assert sorted(pk[0] for pk in ps.search_rtree("byLoc", window)) \
                == [i for i in ids if 2 <= i % 10 <= 6]

        for i in range(INDEXED_RECORDS):
            try:
                cluster.insert_record("Users", located(i))
            except NodeCrashFault as fault:
                cluster.handle_fault(fault)
                assert_holds(list(range(crash_at - 1)))
                cluster.insert_record("Users", located(i))

        assert_holds(list(range(INDEXED_RECORDS)))
        delta = get_registry().delta(before)
        cluster.close()
        assert delta.get("resilience.node_crashes") == 1
        # the lifecycle this case exists for really ran
        assert delta.get("lsm.flushes", 0) >= 10
        assert delta.get("lsm.merges", 0) >= 1


class TestMultiNode:
    def test_surviving_node_keeps_serving(self, tmp_path):
        injector = FaultInjector()
        cluster = ClusterController(
            str(tmp_path / "cluster"),
            ClusterConfig(num_nodes=2, partitions_per_node=1),
            injector=injector,
        )
        cluster.create_dataset("Users", ("id",))
        records = [{"id": i, "alias": f"u{i}"} for i in range(20)]
        # split by the cluster's own routing
        on_node0 = [r for r in records
                    if cluster.node_of_partition(
                        cluster.partition_of_key((r["id"],))).node_id == 0]
        assert on_node0 and len(on_node0) < len(records)

        for r in records:
            cluster.insert_record("Users", r)
        cluster.crash_node(0)

        # node 1's partitions are untouched by node 0's death
        survivor = [r for r in records if r not in on_node0]
        for r in survivor:
            assert cluster.get_record("Users", (r["id"],)) is not None
        # node 0's are unreachable until restart
        with pytest.raises(NodeCrashFault):
            cluster.get_record("Users", (on_node0[0]["id"],))

        cluster.restart_node(0)
        ids = sorted(rec["id"] for _, rec in cluster.scan_dataset("Users"))
        assert ids == list(range(20))
        cluster.close()
