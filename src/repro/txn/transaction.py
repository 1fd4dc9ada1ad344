"""Entity transactions: the NoSQL-style atomicity unit (feature 9).

Every record mutation (INSERT/UPSERT/DELETE, including its secondary-index
maintenance) runs as one *entity transaction*: lock the record, write the
UPDATE log record, apply the mutation to the LSM memory components, write
ENTITY_COMMIT, force the log, release the lock.  The
:class:`TransactionalPartition` wrapper enforces this protocol around a
:class:`~repro.storage.dataset_storage.PartitionStorage`.

Each entity transaction is an explicit :class:`EntityTransaction` state
machine (ACTIVE -> COMMITTED | ABORTED).  A failed operation — a
duplicate key, an injected :class:`~repro.resilience.faults.DiskIOFault`,
a node crash mid-commit — aborts it, appending an ABORT record so the log
tells the whole story.  ``abort`` is **idempotent**: retry and resilience
paths abort defensively without knowing whether the fault struck before
or after the commit, and re-aborting a finished transaction is a no-op.
``commit`` on a finished transaction raises
:class:`~repro.common.errors.TransactionStateError` — committing twice,
or after an abort, is a protocol bug, never silently absorbed.
"""

from __future__ import annotations

import enum
import itertools

from repro.adm.serializer import deserialize, serialize
from repro.common.errors import TransactionStateError
from repro.observability.metrics import get_registry
from repro.storage.dataset_storage import PartitionStorage
from repro.txn.lock_manager import LockManager
from repro.txn.log_manager import LogManager, LogRecord, LogRecordType


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class EntityTransaction:
    """One record-level transaction with an explicit lifecycle."""

    def __init__(self, manager: "TransactionManager", txn_id: int):
        self.manager = manager
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE

    def commit(self, dataset: str, partition: int, key: tuple) -> None:
        """Seal the transaction: append ENTITY_COMMIT and force the log.

        Raises :class:`TransactionStateError` unless ACTIVE — commit is
        not idempotent; a double commit (or commit-after-abort) means the
        entity protocol was violated.
        """
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"cannot commit txn {self.txn_id}: already "
                f"{self.state.value}"
            )
        self.manager.log.append(LogRecord(
            LogRecordType.ENTITY_COMMIT, txn_id=self.txn_id,
            dataset=dataset, partition=partition, key=key,
        ))
        self.manager.log.flush()
        self.state = TxnState.COMMITTED
        self.manager.commits += 1

    def abort(self, dataset: str = "", partition: int = 0,
              key: tuple = ()) -> bool:
        """Abort if still ACTIVE; returns whether this call aborted.

        Idempotent by design: aborting an already-aborted *or committed*
        transaction is a no-op returning False, so recovery/retry code
        can abort defensively after any failure without corrupting a
        commit that already happened.  The ABORT record is appended but
        not forced — aborted transactions are skipped by recovery whether
        or not the record survives.
        """
        if self.state is not TxnState.ACTIVE:
            return False
        self.manager.log.append(LogRecord(
            LogRecordType.ABORT, txn_id=self.txn_id,
            dataset=dataset, partition=partition, key=key,
        ))
        self.state = TxnState.ABORTED
        self.manager.aborts += 1
        get_registry().counter("resilience.txn_aborts").inc()
        return True


class TransactionManager:
    """Per-node transaction service: ids, locks, the WAL."""

    def __init__(self, log: LogManager):
        self.log = log
        self.locks = LockManager()
        self._ids = itertools.count(1)
        self.commits = 0
        self.aborts = 0

    def next_txn_id(self) -> int:
        return next(self._ids)

    def begin(self) -> EntityTransaction:
        """Start a new entity transaction."""
        return EntityTransaction(self, self.next_txn_id())

    def seed_ids(self, min_txn_id: int) -> None:
        """Restart the id sequence at ``min_txn_id``.

        Recovery calls this after scanning the WAL so new transaction ids
        continue past the log's maximum — an old uncommitted entity
        transaction can then never be confused with a new committed one
        during a later recovery pass.
        """
        self._ids = itertools.count(min_txn_id)

    def checkpoint(self, partitions) -> int:
        """Write a checkpoint at the min durable LSN over ``partitions``."""
        low_water = min(
            (p.durable_lsn() for p in partitions), default=0
        )
        return self.log.checkpoint(low_water)


class TransactionalPartition:
    """A PartitionStorage with the entity-transaction protocol applied."""

    def __init__(self, storage: PartitionStorage, txn: TransactionManager):
        self.storage = storage
        self.txn = txn

    def _entity_op(self, pk: tuple, value: bytes, is_delete: bool,
                   apply_fn):
        txn = self.txn.begin()
        ds, part = self.storage.dataset_name, self.storage.partition_id
        self.txn.locks.acquire(txn.txn_id, ds, part, pk)
        # a component flushed by this op holds its uncommitted write: no
        # manifest may list it before the commit is forced
        indexes = self.storage.indexes()
        for index in indexes:
            index.held = True
        try:
            lsn = self.txn.log.append(LogRecord(
                LogRecordType.UPDATE, txn_id=txn.txn_id, dataset=ds,
                partition=part, key=pk, value=value, is_delete=is_delete,
            ))
            result = apply_fn(lsn)
            txn.commit(ds, part, pk)
        except BaseException:
            # defensive, idempotent: a fault raised from inside commit's
            # log flush leaves the txn ACTIVE (aborted here); any error
            # after the commit sealed is a no-op
            txn.abort(ds, part, pk)
            raise
        finally:
            # an abort ends the hold too, writing nothing (the node may
            # have crashed); the next manifest save catches up
            for index in indexes:
                index.held = False
            self.txn.locks.release_all(txn.txn_id)
        for index in indexes:
            index.save_deferred()
        return result

    def insert(self, record: dict):
        pk = self.storage.extract_pk(record)
        return self._entity_op(
            pk, serialize(record), False,
            lambda lsn: self.storage.insert(record, lsn),
        )

    def upsert(self, record: dict):
        pk = self.storage.extract_pk(record)
        return self._entity_op(
            pk, serialize(record), False,
            lambda lsn: self.storage.upsert(record, lsn),
        )

    def delete(self, pk: tuple):
        return self._entity_op(
            pk, b"", True,
            lambda lsn: self.storage.delete(pk, lsn),
        )

    # reads need no locks in this snapshot-free, single-writer model
    def get(self, pk: tuple):
        return self.storage.get(pk)

    def scan(self, *args, **kwargs):
        return self.storage.scan(*args, **kwargs)


class RecoveryManager:
    """Crash recovery: replay committed entity operations into the LSM
    memory components of any partition whose durable LSN predates them.

    Replay is idempotent: UPDATEs re-apply as upserts/deletes through the
    normal PartitionStorage path (which also re-derives secondary-index
    maintenance), so a partition whose primary was more durable than one of
    its secondaries simply re-applies a few no-op upserts."""

    def __init__(self, log: LogManager):
        self.log = log
        self.replayed = 0
        self.skipped = 0
        #: largest transaction id anywhere in the log (set by recover)
        self.max_txn_id = 0

    def recover(self, partitions: dict) -> int:
        """``partitions`` maps (dataset, partition_id) -> PartitionStorage
        (freshly reopened via the LSM manifests).  Returns the number of
        operations replayed.

        One pass decodes the whole log: it finds the last CHECKPOINT's
        low-water mark (only records at or above it count) and
        :attr:`max_txn_id`, which restart seeds new transaction ids from."""
        start = 0
        self.max_txn_id = 0
        committed: dict[int, int] = {}   # txn id -> LSN of its last record
        aborted: dict[int, int] = {}
        updates: list[LogRecord] = []
        for record in self.log.scan():
            self.max_txn_id = max(self.max_txn_id, record.txn_id)
            if record.type is LogRecordType.CHECKPOINT:
                start = record.flush_lsn
            elif record.type is LogRecordType.ENTITY_COMMIT:
                committed[record.txn_id] = record.lsn
            elif record.type is LogRecordType.ABORT:
                aborted[record.txn_id] = record.lsn
            elif record.type is LogRecordType.UPDATE:
                updates.append(record)
        self.replayed = 0
        self.skipped = 0
        durable = {key: ps.durable_lsn() for key, ps in partitions.items()}
        for record in updates:
            if record.lsn < start:
                continue
            if (committed.get(record.txn_id, -1) < start
                    or aborted.get(record.txn_id, -1) >= start):
                self.skipped += 1
                continue
            key = (record.dataset, record.partition)
            storage = partitions.get(key)
            if storage is None or record.lsn <= durable[key]:
                self.skipped += 1
                continue
            if record.is_delete:
                storage.delete(record.key, lsn=record.lsn)
            else:
                storage.upsert(deserialize(record.value), lsn=record.lsn)
            self.replayed += 1
        return self.replayed
