"""External sort (paper Fig. 2's "working memory" in action).

The fundamental AsterixDB assumption is that data "can well exceed the size
of main memory, and likewise (at least potentially) for intermediate query
results" [10] — so the sort operator is budgeted: it accumulates at most
``memory_frames * frame_size`` tuples, sorts each batch, spills it as a
sorted run file, and finally k-way-merges the runs (recursively if there
are more runs than merge fan-in).  Experiment E4 sweeps the budget.

The paper also credits university contributions with "much-improved
parallel sorting" (§VII): the parallel plan sorts each partition locally
with this operator and merges globally through a MergeConnector.

Sort keys are compiled, never rebuilt per comparison:
:func:`compile_order_key` turns fields+descending **once per operator
run** into a single closure over cheap ``order_part`` pairs (raw values
when a whole key column is natively orderable), so the sort's O(n log n)
comparisons run in the C tuple comparator.  The external-merge path
decorates run read-back streams with precomputed keys
(:meth:`ExternalSortOp._decorated`), so ``_merge_iter`` never recomputes
``key(tup)`` on a heap push; the spill file stores only tuples.
"""

from __future__ import annotations

import heapq

from repro.adm.comparators import (
    native_orderable,
    order_part,
    tuple_key_many,
)
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks.runfile import RunFileWriter
from repro.observability.metrics import get_registry


class _Reversed:
    """Inverts comparison order for DESC sort fields."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def compile_order_key(fields: list[int], descending: list[bool], data=None):
    """Compile fields+descending into one key closure: tuples order by
    :func:`repro.adm.comparators.compare` on each field in turn, reversed
    on DESC fields (min-first is output order).

    When ``data`` — the full input the keys will be drawn from — is
    supplied, a key column whose values are natively orderable (one
    plain scalar type, or any mix of ints and floats) compiles to the
    raw value, pushing those comparisons entirely into C.  Keys from
    different compilations never compare against each other.
    """
    parts = []
    for f, desc in zip(fields, descending):
        if data is not None and native_orderable([t[f] for t in data]):
            def get(t, _f=f):
                return t[_f]
        else:
            def get(t, _f=f):
                return order_part(t[_f])
        parts.append((get, desc))
    if len(parts) == 1:
        get, desc = parts[0]
        if desc:
            return lambda t: _Reversed(get(t))
        return get
    return lambda t: tuple(
        _Reversed(g(t)) if d else g(t) for g, d in parts)


def _compile_sort_plan(fields, descending, data):
    """``(sorted_key, reverse, heap_key)`` for one sort run: pass the
    first two to ``sorted`` (an all-DESC order sorts by the ascending
    key with ``reverse=True`` — both orders break ties by input
    position, so the results are identical to per-field ``_Reversed``
    wrapping); ``heap_key`` orders min-first for merge heaps."""
    if descending and all(descending):
        asc = compile_order_key(fields, [False] * len(fields), data)
        return asc, True, (lambda t: _Reversed(asc(t)))
    key = compile_order_key(fields, descending, data)
    return key, False, key


class ExternalSortOp(OperatorDescriptor):
    """Budgeted external merge sort of one partition's stream."""

    name = "external-sort"
    streaming = False     # pipeline breaker: output exists only after the
                          # last input tuple has been seen

    def __init__(self, fields: list[int], descending: list[bool] | None = None,
                 memory_frames: int | None = None):
        self.fields = list(fields)
        self.descending = list(descending or [False] * len(fields))
        self.memory_frames = memory_frames
        self.last_run_counts: list[int] = []   # observability for E4
        self.last_merge_passes = 0             # read-back passes, incl. final

    def run(self, ctx, partition, inputs):
        desired = (self.memory_frames if self.memory_frames is not None
                   else ctx.config.node.sort_memory_frames)
        grant = ctx.acquire_memory(desired, label="sort")
        try:
            return self._sort(ctx, inputs[0],
                              max(2, grant.frames * ctx.frame_size))
        finally:
            ctx.release_memory(grant)

    def _sort(self, ctx, data, budget):
        sort_key, reverse, heap_key = _compile_sort_plan(
            self.fields, self.descending, data)
        ctx.charge_cpu(len(data))
        if len(data) <= budget:
            # fits in memory: one quicksort, no spill
            out = sorted(data, key=sort_key, reverse=reverse)
            ctx.charge_compare(len(data) * max(1, len(data).bit_length()))
            self.last_run_counts.append(0)
            ctx.cost.tuples_out += len(out)
            return out
        # run generation
        runs = []
        for start in range(0, len(data), budget):
            chunk = sorted(data[start:start + budget], key=sort_key,
                           reverse=reverse)
            ctx.charge_compare(len(chunk) * max(1, len(chunk).bit_length()))
            writer = RunFileWriter(ctx, "sortrun")
            for tup in chunk:
                writer.write(tup)
            runs.append(writer.finish())
        self.last_run_counts.append(len(runs))
        # k-way merge under the same budget, measured in runs: classic
        # pass-structured merging — every pass sweeps the current run
        # list once, merging groups of ``fan_in``, so each tuple is
        # re-read/re-written at most ceil(log_fan_in(runs)) times.  (The
        # old schedule *prepended* the merged run, re-merging the big
        # accumulated run on every step — a quadratic read schedule.)
        fan_in = max(2, budget // ctx.frame_size)
        passes = 0
        while len(runs) > fan_in:
            passes += 1
            next_runs = []
            for i in range(0, len(runs), fan_in):
                group = runs[i:i + fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                else:
                    next_runs.append(
                        self._merge_to_run(ctx, group, heap_key))
            runs = next_runs
        passes += 1                      # the final merge into the output
        self.last_merge_passes = passes
        get_registry().counter("sort.merge_passes").inc(passes)
        out = list(self._merge_iter(ctx, runs, heap_key))
        ctx.cost.tuples_out += len(out)
        return out

    @staticmethod
    def expected_merge_passes(num_runs: int, fan_in: int) -> int:
        """ceil(log_fan_in(num_runs)), the textbook external-merge pass
        count the implementation must match (asserted in tests).
        Computed with integer ceil-division so exact powers of the
        fan-in don't fall victim to float log rounding."""
        passes, count = 0, max(1, num_runs)
        while count > 1:
            count = -(-count // fan_in)
            passes += 1
        return max(1, passes)

    @staticmethod
    def _decorated(run, key):
        """Decorate a run's read-back stream with its sort key, computed
        exactly once per tuple at read time — the merge heap pushes the
        precomputed key instead of recomputing ``key(tup)``.  The run
        file itself stores only tuples (unchanged format), so page
        counts — and therefore simulated I/O — are identical."""
        for tup in run:
            yield key(tup), tup

    def _merge_iter(self, ctx, runs, key):
        """Heap-merge ``runs``; every reader is closed in a ``finally``,
        so an early-exiting consumer (LIMIT, a fault mid-merge) releases
        every temp file instead of leaking it."""
        pushes = 0
        try:
            streams = [self._decorated(r, key) for r in runs]
            heap = []
            for rank, stream in enumerate(streams):
                for k, tup in stream:
                    heap.append((k, rank, id(tup), tup))
                    pushes += 1
                    break
            heapq.heapify(heap)
            while heap:
                _, rank, _, tup = heapq.heappop(heap)
                ctx.charge_compare(1)
                yield tup
                for k, nxt in streams[rank]:
                    heapq.heappush(heap, (k, rank, id(nxt), nxt))
                    pushes += 1
                    break
        finally:
            for r in runs:
                r.close()
            if pushes:
                # heap pushes served from a precomputed key
                get_registry().counter("sort.key_cache_hits").inc(pushes)

    def _merge_to_run(self, ctx, runs, key):
        writer = RunFileWriter(ctx, "mergerun")
        for tup in self._merge_iter(ctx, runs, key):
            writer.write(tup)
        return writer.finish()

    def __repr__(self):
        arrows = [
            f"${f}{' desc' if d else ''}"
            for f, d in zip(self.fields, self.descending)
        ]
        return f"sort({', '.join(arrows)})"


class TopKSortOp(OperatorDescriptor):
    """ORDER BY + LIMIT fused: keep only the best K tuples in a bounded
    heap (the optimizer's limit-pushdown rewrite targets this)."""

    name = "topk-sort"
    streaming = False     # pipeline breaker (bounded buffer, but reorders)

    def __init__(self, fields: list[int], k: int,
                 descending: list[bool] | None = None):
        self.fields = list(fields)
        self.k = k
        self.descending = list(descending or [False] * len(fields))

    def run(self, ctx, partition, inputs):
        data = inputs[0]
        ctx.charge_cpu(len(data))
        # every input tuple sifts a k-bounded heap: n * ceil(log2 k)
        # comparisons, not n (which undercounted the heap behavior)
        ctx.charge_compare(len(data) * max(1, self.k.bit_length()))
        out = self._topk(data)
        ctx.cost.tuples_out += len(out)
        return out

    def _topk(self, data):
        """Decorate-select-undecorate: batch-build one key per tuple,
        then let the heap compare ``(key, position, tuple)`` triples —
        the position makes every triple distinct, so ties never reach
        the tuples and earlier input wins them (a stable sort's first
        k)."""
        if self.descending and all(self.descending):
            # a uniformly-DESC top-k is the largest k under the
            # ascending key; positions descend so earlier input wins ties
            keyfn = compile_order_key(
                self.fields, [False] * len(self.fields), data)
            triples = zip([keyfn(t) for t in data],
                          range(0, -len(data), -1), data)
            best = heapq.nlargest(self.k, triples)
        elif any(self.descending):
            keyfn = compile_order_key(self.fields, self.descending, data)
            triples = zip([keyfn(t) for t in data], range(len(data)), data)
            best = heapq.nsmallest(self.k, triples)
        else:
            triples = zip(tuple_key_many(data, self.fields),
                          range(len(data)), data)
            best = heapq.nsmallest(self.k, triples)
        return [t for _, _, t in best]

    def __repr__(self):
        return f"topk-sort(k={self.k}, {self.fields})"
