"""Streaming operators: assign, select, project, limit, union, unnest,
distinct.

Most operators here set ``streaming = True`` and provide only an
:class:`~repro.hyracks.job.OperatorTask`, which the executor either
fuses into a pipelined stage or, when the operator heads a stage, feeds
its whole routed input.  Every task defers its batch cost charges to
``finish`` as integer counts over the whole stream, so the simulated
clock is bit-identical however the input was framed (see
docs/ARCHITECTURE.md, "Job execution").
"""

from __future__ import annotations

from repro.adm.values import MISSING, Multiset
from repro.hyracks.expressions import (
    RuntimeExpr,
    compile_expr,
    compile_predicate,
)
from repro.hyracks.job import OperatorDescriptor, OperatorTask


class AssignOp(OperatorDescriptor):
    """Append one computed field per expression to each tuple."""

    name = "assign"
    streaming = True

    def __init__(self, exprs: list[RuntimeExpr]):
        self.exprs = list(exprs)
        self._evals = None     # compiled closures, set by prepare()

    def prepare(self, config):
        self._evals = [compile_expr(e) for e in self.exprs]

    def start(self, ctx, partition):
        return _AssignTask(self, ctx, partition)

    def __repr__(self):
        return f"assign({len(self.exprs)} exprs)"


class _AssignTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._count = 0

    def push(self, frame):
        evals = self.op._evals
        if len(evals) == 1:
            f = evals[0]
            out = [tup + (f(tup),) for tup in frame]
        else:
            out = [tup + tuple(f(tup) for f in evals) for tup in frame]
        self._count += len(out)
        return out

    def finish(self):
        self.ctx.charge_cpu(self._count * max(1, len(self.op.exprs)))
        self.ctx.cost.tuples_out += self._count
        return []


class SelectOp(OperatorDescriptor):
    """Filter: keep tuples whose condition evaluates to True."""

    name = "select"
    streaming = True

    def __init__(self, condition: RuntimeExpr):
        self.condition = condition
        self._pred = None      # compiled predicate, set by prepare()

    def prepare(self, config):
        self._pred = compile_predicate(self.condition)

    def start(self, ctx, partition):
        return _SelectTask(self, ctx, partition)

    def __repr__(self):
        return f"select({self.condition!r})"


class _SelectTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._seen = 0
        self._kept = 0

    def push(self, frame):
        self._seen += len(frame)
        pred = self.op._pred
        out = [t for t in frame if pred(t)]
        self._kept += len(out)
        return out

    def finish(self):
        self.ctx.charge_cpu(self._seen)
        self.ctx.cost.tuples_out += self._kept
        return []


class ProjectOp(OperatorDescriptor):
    """Keep only the named field positions, in order."""

    name = "project"
    streaming = True

    def __init__(self, fields: list[int]):
        self.fields = list(fields)

    def start(self, ctx, partition):
        return _ProjectTask(self, ctx, partition)

    def __repr__(self):
        return f"project({self.fields})"


class _ProjectTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._count = 0

    def push(self, frame):
        fields = self.op.fields
        out = [tuple(t[i] for i in fields) for t in frame]
        self._count += len(out)
        return out

    def finish(self):
        self.ctx.charge_cpu(self._count)
        self.ctx.cost.tuples_out += self._count
        return []


class LimitOp(OperatorDescriptor):
    """LIMIT/OFFSET; runs on the gathered (single-partition) stream."""

    partition_count = 1
    name = "limit"
    streaming = True

    def __init__(self, limit: int | None, offset: int = 0):
        self.limit = limit
        self.offset = offset

    def start(self, ctx, partition):
        return _LimitTask(self, ctx, partition)

    def __repr__(self):
        return f"limit({self.limit}, offset={self.offset})"


class _LimitTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._skipped = 0
        self._emitted = 0

    def push(self, frame):
        out = []
        limit = self.op.limit
        for tup in frame:
            if self._skipped < self.op.offset:
                self._skipped += 1
                continue
            if limit is not None and self._emitted >= limit:
                break
            out.append(tup)
            self._emitted += 1
        return out

    def finish(self):
        self.ctx.cost.tuples_out += self._emitted
        return []


class UnionAllOp(OperatorDescriptor):
    """UNION ALL of two inputs with identical schemas."""

    num_inputs = 2
    name = "union-all"

    def run(self, ctx, partition, inputs):
        out = list(inputs[0]) + list(inputs[1])
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out


class UnnestOp(OperatorDescriptor):
    """UNNEST: one output tuple per item of a collection-valued expression.

    Non-collections and empty collections produce no tuples (inner unnest
    semantics); ``outer=True`` keeps the input tuple with MISSING."""

    name = "unnest"
    streaming = True

    def __init__(self, collection: RuntimeExpr, outer: bool = False,
                 positional: bool = False):
        self.collection = collection
        self.outer = outer
        self.positional = positional
        self._coll = None      # compiled collection closure

    def prepare(self, config):
        self._coll = compile_expr(self.collection)

    def _expand(self, tup) -> list:
        coll = self._coll(tup)
        items = coll if isinstance(coll, (list, Multiset)) else []
        if not items and self.outer:
            extra = (MISSING, 0) if self.positional else (MISSING,)
            return [tup + extra]
        if self.positional:
            return [tup + (item, pos) for pos, item in enumerate(items)]
        return [tup + (item,) for item in items]

    def start(self, ctx, partition):
        return _UnnestTask(self, ctx, partition)

    def __repr__(self):
        return f"unnest({self.collection!r})"


class _UnnestTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._seen = 0
        self._emitted = 0

    def push(self, frame):
        out = []
        for tup in frame:
            out.extend(self.op._expand(tup))
        self._seen += len(frame)
        self._emitted += len(out)
        return out

    def finish(self):
        self.ctx.charge_cpu(self._emitted + self._seen)
        self.ctx.cost.tuples_out += self._emitted
        return []


class DistinctOp(OperatorDescriptor):
    """Hash-based duplicate elimination over the whole tuple (inputs are
    hash-partitioned on the distinct fields, so per-partition dedup is
    globally correct)."""

    name = "distinct"
    streaming = True

    def __init__(self, fields: list[int] | None = None):
        self.fields = fields    # None = whole tuple
        # key-column tuple for the job's key cache (None = whole tuple)
        self._cols = None if fields is None else tuple(fields)

    def start(self, ctx, partition):
        return _DistinctTask(self, ctx, partition)


class _DistinctTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._seen_keys = set()
        self._seen = 0
        self._kept = 0

    def push(self, frame):
        out = []
        seen_keys = self._seen_keys
        # key bytes batch through the job cache in one call; the hash
        # charge stays per tuple so the float accumulation does not
        # depend on the framing
        keys = self.ctx.key_bytes_many(frame, self.op._cols)
        for tup, key in zip(frame, keys):
            self.ctx.charge_hash(1)
            if key not in seen_keys:
                seen_keys.add(key)
                out.append(tup)
        self._seen += len(frame)
        self._kept += len(out)
        return out

    def finish(self):
        self.ctx.charge_cpu(self._seen)
        self.ctx.cost.tuples_out += self._kept
        return []


class MaterializeOp(OperatorDescriptor):
    """Identity operator used as an explicit stage boundary (stays
    non-streaming on purpose — its whole job is to break a pipeline)."""

    name = "materialize"

    def run(self, ctx, partition, inputs):
        ctx.cost.tuples_out += len(inputs[0])
        return list(inputs[0])


class RunningAggregateOp(OperatorDescriptor):
    """Appends a running counter (used for positional variables)."""

    partition_count = 1
    name = "running-aggregate"
    streaming = True

    def start(self, ctx, partition):
        return _RunningAggregateTask(self, ctx, partition)


class _RunningAggregateTask(OperatorTask):
    def __init__(self, op, ctx, partition):
        super().__init__(op, ctx, partition)
        self._count = 0

    def push(self, frame):
        start = self._count
        out = [tup + (start + i + 1,) for i, tup in enumerate(frame)]
        self._count += len(out)
        return out

    def finish(self):
        self.ctx.cost.tuples_out += self._count
        return []
