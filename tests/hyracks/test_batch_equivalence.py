"""Frame-at-a-time execution against plain-Python oracles (ISSUE-7).

Sorts, group-bys and aggregates run over whole frames (bulk aggregate
stepping, compiled sort keys, batched key bytes).  Their answers are
pinned at three levels:

* **Value level** (hypothesis): ``AggregateState.step_many`` — whole or
  chunked — finishes with exactly what the sequential ``step`` fold
  produces, including tie-breaking (``1`` vs ``1.0`` in MIN/MAX);
  ``order_part``/``compile_order_key`` order exactly like
  :func:`repro.adm.comparators.compare`, reversed per DESC field.
* **Operator level** (hypothesis): group-by/aggregate/top-k operators
  over random frames must produce what a dict-and-fold oracle written
  here produces, and charge the simulated clock what the cost model
  says.
* **Observability**: the ``agg.batched_steps`` and
  ``sort.key_cache_hits`` counters tick, and the top-k cost model
  charges ``n * ceil(log2 k)`` comparisons.

Executor-level coverage (expected rows, repeatable observations) lives
in ``test_executor.py``.
"""

from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm.comparators import (
    compare,
    order_part,
    tuple_key,
    tuple_key_many,
)
from repro.adm.values import MISSING
from repro.common.config import ClusterConfig, NodeConfig
from repro.functions.aggregates import AggregateState
from repro.functions.registry import resolve_aggregate
from repro.hyracks.connectors import MergeConnector
from repro.hyracks.expressions import ColumnRef
from repro.hyracks.operators.base import TaskContext
from repro.hyracks.operators.group import (
    AggregateCall,
    AggregateOp,
    HashGroupByOp,
    PreclusteredGroupByOp,
)
from repro.hyracks.operators.sort import (
    TopKSortOp,
    _compile_sort_plan,
    compile_order_key,
)
from repro.hyracks.profiler import PartitionCost
from repro.observability.metrics import get_registry

GENERAL_VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "bb", "zz"]),
    st.booleans(),
    st.none(),
    st.just(MISSING),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)

NUMERIC_VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20,
              allow_nan=False, allow_infinity=False),
    st.none(),
    st.just(MISSING),
)


def canon(x):
    """Strict equality token: distinguishes 1 / 1.0 / True, so the
    tie-breaking of bulk folds is checked, not just ADM equality."""
    return (type(x).__name__, repr(x))


class TestStepManyAgreement:
    def _check(self, name, values, chunk):
        func = resolve_aggregate(name)
        ref = AggregateState(func)
        for v in values:
            ref.step(v)
        whole = AggregateState(func)
        whole.step_many(list(values))
        chunked = AggregateState(func)
        for i in range(0, len(values), chunk):
            chunked.step_many(values[i:i + chunk])
        expected = canon(ref.finish())
        assert canon(whole.finish()) == expected
        assert canon(chunked.finish()) == expected

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(
               ["count", "count_star", "min", "max", "listify"]),
           values=st.lists(GENERAL_VALUES, max_size=30),
           chunk=st.integers(min_value=1, max_value=7))
    def test_general_aggregates(self, name, values, chunk):
        self._check(name, values, chunk)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["sum", "avg"]),
           values=st.lists(NUMERIC_VALUES, max_size=30),
           chunk=st.integers(min_value=1, max_value=7))
    def test_numeric_aggregates(self, name, values, chunk):
        self._check(name, values, chunk)

    def test_min_max_keep_earliest_of_ties(self):
        for name in ("min", "max"):
            state = AggregateState(resolve_aggregate(name))
            state.step_many([1, 1.0])
            assert canon(state.finish()) == canon(1)


WIDTH = 3
FRAMES = st.lists(
    st.lists(GENERAL_VALUES, min_size=WIDTH, max_size=WIDTH).map(tuple),
    max_size=25)
FIELD_SPECS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=WIDTH - 1), st.booleans()),
    min_size=1, max_size=WIDTH)


def reference_sort(data, fields, descending):
    """Stable sort by ``compare`` on each field in turn, DESC reversed."""
    def by_fields(a, b):
        for f, desc in zip(fields, descending):
            c = compare(a[f], b[f])
            if c:
                return -c if desc else c
        return 0
    return sorted(data, key=cmp_to_key(by_fields))


class TestSortKeyAgreement:
    @settings(max_examples=150, deadline=None)
    @given(a=GENERAL_VALUES, b=GENERAL_VALUES)
    def test_order_part_agrees_with_compare(self, a, b):
        pa, pb = order_part(a), order_part(b)
        c = compare(a, b)
        assert (pa < pb) == (c < 0)
        assert (pa == pb) == (c == 0)

    @settings(max_examples=100, deadline=None)
    @given(data=FRAMES)
    def test_tuple_key_many_orders_like_tuple_key(self, data):
        ref = sorted(range(len(data)), key=lambda i: tuple_key(data[i]))
        many = tuple_key_many(data)
        assert sorted(range(len(data)), key=lambda i: many[i]) == ref

    @settings(max_examples=150, deadline=None)
    @given(data=FRAMES, spec=FIELD_SPECS)
    def test_compiled_key_sorts_like_order_key(self, data, spec):
        fields = [f for f, _ in spec]
        descending = [d for _, d in spec]
        ref = reference_sort(data, fields, descending)
        compiled = compile_order_key(fields, descending, data)
        assert sorted(data, key=compiled) == ref
        sort_key, reverse, heap_key = _compile_sort_plan(
            fields, descending, data)
        assert sorted(data, key=sort_key, reverse=reverse) == ref
        assert min(data, key=heap_key, default=None) == (
            ref[0] if ref else None)


def _ctx() -> TaskContext:
    # node=None: these operators never touch node services on the
    # in-memory path exercised here
    config = ClusterConfig(num_nodes=1, partitions_per_node=1,
                           node=NodeConfig())
    return TaskContext(None, config, PartitionCost())


AGG_NAMES = ("count", "sum", "min")       # over columns 0, 1, 2


def _aggs():
    return [AggregateCall(name, ColumnRef(col))
            for col, name in enumerate(AGG_NAMES)]


def reference_fold(rows):
    """One output value per aggregate: the registry's ``step`` folded
    over the column, unknowns skipped."""
    out = []
    for col, name in enumerate(AGG_NAMES):
        state = AggregateState(resolve_aggregate(name))
        for row in rows:
            state.step(row[col])
        out.append(state.finish())
    return tuple(out)


def reference_groups(data):
    """Group on column 0 with a plain dict (the generated keys are small
    ints, so Python equality is ADM equality), first-seen order."""
    groups = {}
    for row in data:
        groups.setdefault(row[0], []).append(row)
    return [(key,) + reference_fold(rows) for key, rows in groups.items()]


def assert_strictly_equal(out, expected):
    assert [canon(v) for t in out for v in t] == \
        [canon(v) for t in expected for v in t]
    assert len(out) == len(expected)


OP_FRAMES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              NUMERIC_VALUES,
              GENERAL_VALUES),
    max_size=25)


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_global_aggregate(self, data):
        ctx = _ctx()
        op = AggregateOp(_aggs())
        op.prepare(ctx.config)
        out = op.run(ctx, 0, [list(data)])
        assert_strictly_equal(out, [reference_fold(data)])
        assert ctx.cost.cpu_us == \
            len(data) * len(AGG_NAMES) * ctx.config.cost.tuple_cpu_us

    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_hash_group_by(self, data):
        ctx = _ctx()
        op = HashGroupByOp([0], _aggs())
        op.prepare(ctx.config)
        # budget too large to spill: the spill path needs node temp
        # files and is covered by the executor-level suite
        out = op._aggregate(ctx, list(data), 10 ** 9, 0)
        assert_strictly_equal(out, reference_groups(data))
        cost = ctx.config.cost
        assert ctx.cost.cpu_us == (
            len(data) * cost.hash_us
            + len(data) * len(AGG_NAMES) * cost.tuple_cpu_us)

    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_preclustered_group_by(self, data):
        clustered = sorted(data, key=lambda t: t[0])
        ctx = _ctx()
        op = PreclusteredGroupByOp([0], _aggs())
        op.prepare(ctx.config)
        out = op.run(ctx, 0, [clustered])
        assert_strictly_equal(out, reference_groups(clustered))
        cost = ctx.config.cost
        assert ctx.cost.cpu_us == (len(data) * cost.compare_us
                                   + len(data) * cost.tuple_cpu_us)

    @settings(max_examples=60, deadline=None)
    @given(data=FRAMES, spec=FIELD_SPECS,
           k=st.integers(min_value=1, max_value=8))
    def test_topk_sort(self, data, spec, k):
        fields = [f for f, _ in spec]
        descending = [d for _, d in spec]
        out = TopKSortOp(fields, k, descending).run(
            _ctx(), 0, [list(data)])
        assert out == reference_sort(data, fields, descending)[:k]


class TestCostModelAndCounters:
    def test_topk_charges_heap_sift_comparisons(self):
        # satellite fix: n tuples through a k-bounded heap cost
        # n * max(1, ceil(log2 k)) comparisons, not n
        n, k = 100, 5
        ctx = _ctx()
        TopKSortOp([0], k).run(ctx, 0, [[(i,) for i in range(n)]])
        cost = ctx.config.cost
        expected = (n * cost.tuple_cpu_us
                    + n * max(1, k.bit_length()) * cost.compare_us)
        assert ctx.cost.cpu_us == expected

    def test_batched_steps_counter(self):
        counter = get_registry().counter("agg.batched_steps")
        before = counter.value
        ctx = _ctx()
        op = AggregateOp(_aggs())
        op.prepare(ctx.config)
        op.run(ctx, 0, [[(i, i, i) for i in range(10)]])
        assert counter.value - before == 10 * 3

    def test_merge_connector_key_cache_hits(self):
        class Ctx:
            def charge_network(self, n):
                pass

            def charge_compare(self, n):
                pass

        counter = get_registry().counter("sort.key_cache_hits")
        before = counter.value
        parts = [[(0,), (2,)], [(1,), (3,)]]
        merged = MergeConnector([0]).route(parts, 1, Ctx())
        assert merged == [[(0,), (1,), (2,), (3,)]]
        # every heap push reused a precomputed compiled key
        assert counter.value - before == 4
