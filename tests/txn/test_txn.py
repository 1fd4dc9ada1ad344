"""Tests for the WAL, locks, entity transactions, and crash recovery."""

import pytest

from repro.adm import serialize
from repro.common.errors import TransactionError
from repro.storage import BufferCache, FileManager, IODevice
from repro.storage.dataset_storage import PartitionStorage, SecondaryIndexSpec
from repro.txn import (
    LockManager,
    LogManager,
    LogRecord,
    LogRecordType,
    RecoveryManager,
    TransactionManager,
    TransactionalPartition,
)


@pytest.fixture
def log(tmp_path):
    manager = LogManager(str(tmp_path / "txnlog" / "log"))
    yield manager
    manager.close()


class TestLogManager:
    def test_append_and_scan(self, log):
        r1 = LogRecord(LogRecordType.UPDATE, txn_id=1, dataset="ds",
                       partition=0, key=(1,), value=serialize({"id": 1}))
        r2 = LogRecord(LogRecordType.ENTITY_COMMIT, txn_id=1, dataset="ds",
                       key=(1,))
        lsn1 = log.append(r1)
        lsn2 = log.append(r2)
        assert lsn1 < lsn2
        records = list(log.scan())
        assert [r.type for r in records] == [LogRecordType.UPDATE,
                                             LogRecordType.ENTITY_COMMIT]
        assert records[0].key == (1,)
        assert records[0].lsn == lsn1

    def test_scan_from_lsn(self, log):
        log.append(LogRecord(LogRecordType.UPDATE, txn_id=1, key=(1,)))
        lsn2 = log.append(LogRecord(LogRecordType.UPDATE, txn_id=2, key=(2,)))
        got = list(log.scan(lsn2))
        assert len(got) == 1 and got[0].txn_id == 2

    def test_delete_flag_roundtrip(self, log):
        log.append(LogRecord(LogRecordType.UPDATE, txn_id=1, key=(9,),
                             is_delete=True))
        assert list(log.scan())[0].is_delete is True

    def test_checkpoint_low_water(self, log):
        lsn = log.append(LogRecord(LogRecordType.UPDATE, txn_id=1, key=(1,)))
        log.checkpoint(lsn)
        assert log.last_checkpoint_lsn() == lsn

    def test_checkpoint_beyond_tail_rejected(self, log):
        with pytest.raises(TransactionError):
            log.checkpoint(10**9)

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "log2")
        log = LogManager(path)
        log.append(LogRecord(LogRecordType.UPDATE, txn_id=7, key=(1,)))
        log.flush()
        log.close()
        log2 = LogManager(path)
        assert [r.txn_id for r in log2.scan()] == [7]
        log2.append(LogRecord(LogRecordType.UPDATE, txn_id=8, key=(2,)))
        assert [r.txn_id for r in log2.scan()] == [7, 8]
        log2.close()

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "log3")
        log = LogManager(path)
        log.append(LogRecord(LogRecordType.UPDATE, txn_id=1, key=(1,)))
        log.flush()
        log.close()
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x01\x00partial")  # truncated record
        log2 = LogManager(path)
        assert len(list(log2.scan())) == 1
        log2.close()


class TestLockManager:
    def test_acquire_release(self):
        lm = LockManager()
        lm.acquire(1, "ds", 0, (1,))
        assert lm.holds(1, "ds", 0, (1,))
        lm.release_all(1)
        assert not lm.holds(1, "ds", 0, (1,))
        assert lm.active_locks == 0

    def test_conflict_raises(self):
        lm = LockManager()
        lm.acquire(1, "ds", 0, (1,))
        with pytest.raises(TransactionError, match="conflict"):
            lm.acquire(2, "ds", 0, (1,))

    def test_reentrant(self):
        lm = LockManager()
        lm.acquire(1, "ds", 0, (1,))
        lm.acquire(1, "ds", 0, (1,))  # same txn, fine

    def test_different_keys_no_conflict(self):
        lm = LockManager()
        lm.acquire(1, "ds", 0, (1,))
        lm.acquire(2, "ds", 0, (2,))
        lm.acquire(3, "ds", 1, (1,))  # other partition
        assert lm.active_locks == 3


@pytest.fixture
def stack(tmp_path):
    fm = FileManager([IODevice(0, str(tmp_path / "dev"))], page_size=2048)
    cache = BufferCache(fm, num_pages=128)
    log = LogManager(str(tmp_path / "log" / "wal"))
    yield fm, cache, log
    log.close()
    fm.close()


def make_partition(fm, cache, budget=1 << 20):
    return PartitionStorage(fm, cache, "ds", 0, ("id",),
                            memory_budget_bytes=budget)


class TestEntityTransactions:
    def test_ops_produce_update_and_commit(self, stack):
        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        tp.insert({"id": 1, "x": "a"})
        tp.upsert({"id": 1, "x": "b"})
        tp.delete((1,))
        types = [r.type for r in log.scan()]
        assert types == [LogRecordType.UPDATE, LogRecordType.ENTITY_COMMIT] * 3
        assert txn.commits == 3

    def test_locks_released_after_op(self, stack):
        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        tp.insert({"id": 1})
        assert txn.locks.active_locks == 0

    def test_failed_op_releases_lock(self, stack):
        from repro.common.errors import DuplicateKeyError

        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        tp.insert({"id": 1})
        with pytest.raises(DuplicateKeyError):
            tp.insert({"id": 1})
        assert txn.locks.active_locks == 0


class TestTransactionStateMachine:
    def test_abort_is_idempotent(self, stack):
        from repro.txn import TxnState

        _, _, log = stack
        manager = TransactionManager(log)
        txn = manager.begin()
        assert txn.abort("ds", 0, (1,)) is True
        assert txn.state is TxnState.ABORTED
        assert txn.abort("ds", 0, (1,)) is False   # no-op, not an error
        assert manager.aborts == 1                 # counted once

    def test_abort_after_commit_is_noop(self, stack):
        from repro.txn import TxnState

        _, _, log = stack
        manager = TransactionManager(log)
        txn = manager.begin()
        txn.commit("ds", 0, (1,))
        assert txn.abort("ds", 0, (1,)) is False
        assert txn.state is TxnState.COMMITTED     # commit stands
        assert manager.aborts == 0

    def test_commit_after_abort_raises(self, stack):
        from repro.common.errors import TransactionStateError

        _, _, log = stack
        manager = TransactionManager(log)
        txn = manager.begin()
        txn.abort("ds", 0, (1,))
        with pytest.raises(TransactionStateError, match="aborted"):
            txn.commit("ds", 0, (1,))

    def test_double_commit_raises(self, stack):
        from repro.common.errors import TransactionStateError

        _, _, log = stack
        manager = TransactionManager(log)
        txn = manager.begin()
        txn.commit("ds", 0, (1,))
        with pytest.raises(TransactionStateError, match="committed"):
            txn.commit("ds", 0, (1,))

    def test_failed_op_writes_abort_record(self, stack):
        from repro.common.errors import DuplicateKeyError

        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        tp.insert({"id": 1})
        with pytest.raises(DuplicateKeyError):
            tp.insert({"id": 1})
        types = [r.type for r in log.scan()]
        assert types == [LogRecordType.UPDATE, LogRecordType.ENTITY_COMMIT,
                         LogRecordType.UPDATE, LogRecordType.ABORT]
        assert txn.aborts == 1

    def test_recovery_skips_aborted_transactions(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        tp.insert({"id": 1, "x": "keep"})
        # a hand-rolled aborted transaction whose UPDATE is in the log
        bad = txn.begin()
        log.append(LogRecord(LogRecordType.UPDATE, txn_id=bad.txn_id,
                             dataset="ds", partition=0, key=(2,),
                             value=serialize({"id": 2, "x": "drop"})))
        bad.abort("ds", 0, (2,))
        log.flush()
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert recovery.replayed == 1
        assert ps.get((1,)) is not None
        assert ps.get((2,)) is None
        fm2.close()


def crash_and_recover(tmp_path, fm, cache, log, *, with_secondary=False):
    """Simulate a crash: drop all in-memory state, reopen from disk +
    manifest, replay the WAL."""
    from repro.storage.lsm import LSMBTree

    fm.close()
    fm2 = FileManager([IODevice(0, str(tmp_path / "dev"))], page_size=2048)
    cache2 = BufferCache(fm2, num_pages=128)
    ps = PartitionStorage.__new__(PartitionStorage)
    ps.fm, ps.cache = fm2, cache2
    ps.dataset_name, ps.partition_id = "ds", 0
    ps.pk_fields = ("id",)
    ps.memory_budget_bytes = 1 << 20
    ps.merge_policy = None
    ps.device_hint = 0
    ps.validator = None
    ps.primary = LSMBTree.recover(fm2, cache2, "ds/p0/primary",
                                  memory_budget_bytes=1 << 20)
    ps.secondaries = {}
    if with_secondary:
        spec = SecondaryIndexSpec("byX", "btree", ("x",))
        ps.secondaries[spec.name] = (
            spec,
            LSMBTree.recover(fm2, cache2, "ds/p0/idx_byX",
                             memory_budget_bytes=1 << 20),
        )
    recovery = RecoveryManager(log)
    recovery.recover({("ds", 0): ps})
    return ps, recovery, fm2


class TestRecovery:
    def test_unflushed_committed_data_survives(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        for i in range(20):
            tp.insert({"id": i, "x": f"v{i}"})
        # no flush: everything lives in the memory component only
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert recovery.replayed == 20
        assert ps.get((7,))["x"] == "v7"
        assert ps.count() == 20
        fm2.close()

    def test_flushed_data_not_replayed(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        storage = make_partition(fm, cache)
        tp = TransactionalPartition(storage, txn)
        for i in range(10):
            tp.insert({"id": i, "x": "flushed"})
        storage.flush_all()
        for i in range(10, 15):
            tp.insert({"id": i, "x": "unflushed"})
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert recovery.replayed == 5
        assert ps.count() == 15
        fm2.close()

    def test_abort_leaves_later_flushes_durable(self, stack, tmp_path):
        """An aborted entity op must not stall later manifest saves: a
        non-transactional write (LOAD bypasses the WAL) flushed after it
        survives a crash only through the manifest."""
        from repro.common.errors import DuplicateKeyError

        fm, cache, log = stack
        txn = TransactionManager(log)
        storage = make_partition(fm, cache)
        tp = TransactionalPartition(storage, txn)
        tp.insert({"id": 1, "x": "a"})
        with pytest.raises(DuplicateKeyError):
            tp.insert({"id": 1, "x": "dup"})
        storage.upsert({"id": 2, "x": "loaded"})
        storage.flush_all()
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert ps.primary.num_disk_components == 1
        assert ps.get((2,))["x"] == "loaded"
        assert ps.get((1,))["x"] == "a"
        fm2.close()

    def test_deletes_replayed(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        storage = make_partition(fm, cache)
        tp = TransactionalPartition(storage, txn)
        for i in range(5):
            tp.insert({"id": i})
        storage.flush_all()
        tp.delete((2,))
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert ps.get((2,)) is None
        assert ps.count() == 4
        fm2.close()

    def test_secondary_rebuilt_by_replay(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        storage = make_partition(fm, cache)
        storage.create_secondary(SecondaryIndexSpec("byX", "btree", ("x",)))
        tp = TransactionalPartition(storage, txn)
        tp.insert({"id": 1, "x": "alpha"})
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log,
                                              with_secondary=True)
        assert list(ps.search_btree("byX", ("alpha",), ("alpha",))) == [(1,)]
        fm2.close()

    def test_checkpoint_limits_scan(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        storage = make_partition(fm, cache)
        tp = TransactionalPartition(storage, txn)
        for i in range(10):
            tp.insert({"id": i})
        storage.flush_all()
        txn.checkpoint([storage])
        tp.insert({"id": 100})
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        assert recovery.replayed == 1
        assert ps.count() == 11
        fm2.close()

    def test_replay_idempotent_under_rerun(self, stack, tmp_path):
        fm, cache, log = stack
        txn = TransactionManager(log)
        tp = TransactionalPartition(make_partition(fm, cache), txn)
        for i in range(5):
            tp.insert({"id": i, "x": "v"})
        ps, recovery, fm2 = crash_and_recover(tmp_path, fm, cache, log)
        # run recovery again on the same partition: nothing double-applied
        RecoveryManager(log).recover({("ds", 0): ps})
        assert ps.count() == 5
        fm2.close()
