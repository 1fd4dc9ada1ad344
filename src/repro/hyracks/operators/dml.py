"""DML operators: INSERT / UPSERT / DELETE with index maintenance.

Incoming record tuples are hash-partitioned on primary key by the
connector feeding these operators, so each partition applies only its own
records — through the node's TransactionalPartition, which gives every
record mutation the WAL + lock entity-transaction treatment (feature 9).
Each operator emits one count tuple per partition; a downstream aggregate
sums them into the statement's "N records affected" result.
"""

from __future__ import annotations

from repro.hyracks.expressions import RuntimeExpr, compile_expr
from repro.hyracks.job import OperatorDescriptor


class _RecordWriteOp(OperatorDescriptor):
    """Writes one record per input tuple, built by the ``record``
    expression (compiled once per job by :meth:`prepare`)."""

    def __init__(self, dataset: str, record: RuntimeExpr):
        self.dataset = dataset
        self.record = record
        self._record = None    # compiled closure, set by prepare()

    def prepare(self, config):
        self._record = compile_expr(self.record)

    def _writer(self, ctx, partition):
        """The partition's write method for one record."""
        raise NotImplementedError

    def run(self, ctx, partition, inputs):
        write = self._writer(ctx, partition)
        before = ctx.node.io_snapshot()
        record_of = self._record
        for tup in inputs[0]:
            write(record_of(tup))
        count = len(inputs[0])
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(count)
        ctx.cost.tuples_out += 1
        return [(count,)]

    def __repr__(self):
        return f"{self.name}({self.dataset})"


class InsertOp(_RecordWriteOp):
    """INSERT: one record per input tuple; duplicates raise (and abort
    the statement)."""

    name = "insert"

    def _writer(self, ctx, partition):
        return ctx.txn_partition(self.dataset, partition).insert


class UpsertOp(_RecordWriteOp):
    """UPSERT (Fig. 3(d)): insert or replace by primary key."""

    name = "upsert"

    def _writer(self, ctx, partition):
        return ctx.txn_partition(self.dataset, partition).upsert


class DeleteOp(OperatorDescriptor):
    """DELETE: the input carries the primary keys to remove (produced by
    the compiled WHERE pipeline)."""

    name = "delete"

    def __init__(self, dataset: str, pk_exprs: list[RuntimeExpr]):
        self.dataset = dataset
        self.pk_exprs = list(pk_exprs)
        self._pk_evals = None    # compiled closures, set by prepare()

    def prepare(self, config):
        self._pk_evals = [compile_expr(e) for e in self.pk_exprs]

    def run(self, ctx, partition, inputs):
        txn_part = ctx.txn_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        evals = self._pk_evals
        count = 0
        for tup in inputs[0]:
            if txn_part.delete(tuple(e(tup) for e in evals)) is not None:
                count += 1
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(inputs[0]))
        ctx.cost.tuples_out += 1
        return [(count,)]

    def __repr__(self):
        return f"delete({self.dataset})"


class LoadOp(_RecordWriteOp):
    """LOAD DATASET: bulk ingestion *without* per-record transaction
    overhead (the initial-load path; the dataset must be empty in real
    AsterixDB — here we just bypass the WAL, as LOAD is redone, not
    replayed)."""

    name = "load"

    def _writer(self, ctx, partition):
        return ctx.storage_partition(self.dataset, partition).upsert
