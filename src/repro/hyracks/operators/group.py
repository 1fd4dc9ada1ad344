"""Grouping and aggregation operators.

``AggregateCall`` pairs a registered aggregate with the expression feeding
it.  Two grouped implementations mirror AsterixDB's physical choices: hash
group-by (with grace-style spilling under a frame budget) and pre-clustered
group-by for inputs already sorted on the grouping keys; ``AggregateOp``
is the global (single-group) variant.

Every operator here works frame-at-a-time: group keys batch through the
job key cache (``TaskContext.key_bytes_many``), each group accumulates
its tuples and folds them once through ``AggregateCall.evaluate_many`` +
``AggregateState.step_many``, groups in first-seen / clustered order.
``agg.batched_steps`` counts the values that flowed through the bulk
fold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.values import fnv1a_bytes
from repro.functions.aggregates import AggregateState
from repro.functions.registry import resolve_aggregate
from repro.hyracks.expressions import (
    RuntimeExpr,
    compile_expr,
    compile_expr_batch,
)
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.runfile import RunFileWriter
from repro.observability.metrics import get_registry


@dataclass
class AggregateCall:
    """One aggregate computation: function name + input expression."""

    function: str
    argument: RuntimeExpr

    def __post_init__(self):
        self._func = resolve_aggregate(self.function)
        #: the argument over a whole frame, ``(tuples) -> [values]``;
        #: set by the owning operator's ``prepare``
        self.evaluate_many = None

    def compile(self) -> None:
        self.evaluate_many = compile_expr_batch(
            self.argument, compile_expr(self.argument))

    def new_state(self) -> AggregateState:
        return AggregateState(self._func)

    def __repr__(self):
        return f"{self.function}({self.argument!r})"


def _finish_group(key_values: tuple, states: list) -> tuple:
    return key_values + tuple(s.finish() for s in states)


def _fold_group(aggregates, frame) -> list:
    """Fresh states for ``aggregates``, bulk-folded over ``frame``."""
    states = [a.new_state() for a in aggregates]
    for call, state in zip(aggregates, states):
        state.step_many(call.evaluate_many(frame))
    return states


class HashGroupByOp(OperatorDescriptor):
    """Hash aggregation on key fields, spilling by key hash when the group
    table exceeds its frame budget (inputs are hash-partitioned on the
    keys, so per-partition groups are globally correct)."""

    name = "hash-group-by"
    streaming = False     # pipeline breaker: groups close at end-of-stream

    def __init__(self, key_fields: list[int], aggregates: list[AggregateCall],
                 memory_frames: int | None = None):
        self.key_fields = list(key_fields)
        self.aggregates = list(aggregates)
        self.memory_frames = memory_frames
        self.spill_rounds = 0

    def prepare(self, config):
        for agg in self.aggregates:
            agg.compile()

    def run(self, ctx, partition, inputs):
        desired = (self.memory_frames if self.memory_frames is not None
                   else ctx.config.node.group_memory_frames)
        grant = ctx.acquire_memory(desired, label="group-by")
        try:
            budget = max(2, grant.frames * ctx.frame_size)
            out = self._aggregate(ctx, inputs[0], budget, 0)
        finally:
            ctx.release_memory(grant)
        ctx.cost.tuples_out += len(out)
        return out

    def _spill(self, ctx, overflow, kb, tup, depth, fan_out, seed):
        """Route one tuple past a full group table into its overflow
        partition (created lazily on the first spilled tuple)."""
        if not overflow:
            self.spill_rounds += 1
            # ownership transfers to _aggregate, which finishes every
            # writer this hands it
            overflow.extend(
                RunFileWriter(ctx, f"gb{depth}")   # lint: allow-temp-pairing
                for _ in range(fan_out))
        h = fnv1a_bytes(kb, seed=seed)
        overflow[h % fan_out].write(tup)

    def _aggregate(self, ctx, data, budget, depth):
        overflow: list[RunFileWriter] = []
        fan_out = 4
        seed = 0xA6A6 + depth
        key_fields = self.key_fields
        cols = tuple(key_fields)
        ctx.charge_hash(len(data))
        # phase 1 routes tuples into per-group pending lists, spilling
        # first-seen groups past the table budget; phase 2 folds each
        # group once
        groups: dict[bytes, tuple] = {}
        for tup, kb in zip(data, ctx.key_bytes_many(data, cols)):
            entry = groups.get(kb)
            if entry is None:
                if len(groups) >= budget and depth < 8:
                    self._spill(ctx, overflow, kb, tup, depth,
                                fan_out, seed)
                    continue
                entry = (tuple(tup[i] for i in key_fields), [])
                groups[kb] = entry
            entry[1].append(tup)
        aggregates = self.aggregates
        out = [
            _finish_group(key, _fold_group(aggregates, pending))
            for key, pending in groups.values()
        ]
        grouped = sum(len(p) for _, p in groups.values())
        if grouped:
            get_registry().counter("agg.batched_steps").inc(
                grouped * max(1, len(aggregates)))
        ctx.charge_cpu(len(data) * max(1, len(self.aggregates)))
        for writer in overflow:
            reader = writer.finish()
            try:
                spilled = list(reader)   # exhaustion auto-releases the file
            finally:
                reader.close()           # idempotent; covers partial reads
            out.extend(self._aggregate(ctx, spilled, budget, depth + 1))
        return out

    def __repr__(self):
        return f"hash-group-by({self.key_fields}, {self.aggregates})"


class PreclusteredGroupByOp(OperatorDescriptor):
    """Group-by over key-sorted input: constant memory, no hashing —
    the physical operator Algebricks picks when the input's local order
    property already covers the grouping keys."""

    name = "preclustered-group-by"

    def __init__(self, key_fields: list[int],
                 aggregates: list[AggregateCall]):
        self.key_fields = list(key_fields)
        self.aggregates = list(aggregates)

    def prepare(self, config):
        for agg in self.aggregates:
            agg.compile()

    def run(self, ctx, partition, inputs):
        data = inputs[0]
        out = []
        cols = tuple(self.key_fields)
        ctx.charge_compare(len(data))
        # batch the key bytes, scan for group boundaries, fold each
        # clustered slice once
        kbs = ctx.key_bytes_many(data, cols)
        aggregates = self.aggregates
        start = 0
        for idx in range(1, len(data) + 1):
            if idx < len(data) and kbs[idx] == kbs[start]:
                continue
            frame = data[start:idx]
            key = tuple(frame[0][i] for i in self.key_fields)
            out.append(_finish_group(key, _fold_group(aggregates, frame)))
            start = idx
        if data:
            get_registry().counter("agg.batched_steps").inc(
                len(data) * max(1, len(aggregates)))
        ctx.charge_cpu(len(data))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"preclustered-group-by({self.key_fields})"


class AggregateOp(OperatorDescriptor):
    """Global aggregation: the whole input is one group (gathered to a
    single partition first).  Always emits exactly one tuple."""

    partition_count = 1
    name = "aggregate"

    def __init__(self, aggregates: list[AggregateCall]):
        self.aggregates = list(aggregates)

    def prepare(self, config):
        for agg in self.aggregates:
            agg.compile()

    def run(self, ctx, partition, inputs):
        data = inputs[0]
        states = _fold_group(self.aggregates, data)
        if data:
            get_registry().counter("agg.batched_steps").inc(
                len(data) * max(1, len(self.aggregates)))
        ctx.charge_cpu(len(data) * max(1, len(self.aggregates)))
        ctx.cost.tuples_out += 1
        return [tuple(s.finish() for s in states)]

    def __repr__(self):
        return f"aggregate({self.aggregates})"
