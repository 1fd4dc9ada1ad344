"""Per-job expression compilation (ISSUE-6).

Two invariants are pinned here:

* **Agreement.**  For any expression tree, the closure returned by
  ``compile_expr`` produces exactly what the tree-walking ``evaluate``
  produces — including MISSING/null propagation order (MISSING beats
  null), cross-type comparisons (incomparable -> SQL++ null), and
  three-valued logic.  A hypothesis sweep generates random trees over
  mixed-type tuples; structured nodes (quantifiers, CASE, constructors,
  comprehensions) get targeted cases.

* **Observability.**  Compilation happens once per job (``prepare_job``),
  surfaced by the ``expr.compile_*`` counters, and the job-wide key
  cache's reuse is visible via ``hyracks.batch.key_cache_hits``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm.values import MISSING, ADate, Multiset, hash_value
from repro.common.config import ClusterConfig, NodeConfig
from repro.hyracks import (
    ClusterController,
    ColumnRef,
    Const,
    FunctionCall,
    HashPartitionConnector,
    JobSpecification,
    OneToOneConnector,
)
from repro.hyracks.expressions import (
    CaseExpr,
    CollectionConstructor,
    Comprehension,
    ObjectConstructor,
    Quantified,
    VarRef,
    compile_expr,
    compile_predicate,
    evaluate_predicate,
    expr_size,
)
from repro.hyracks import keys
from repro.hyracks.keys import KeyCache, plain_key_bytes
from repro.hyracks.operators import (
    AggregateCall,
    AssignOp,
    HashGroupByOp,
    HybridHashJoinOp,
    InMemorySourceOp,
    ResultWriterOp,
    SelectOp,
)
from repro.observability.metrics import get_registry

WIDTH = 6

# key values Python treats as equal (or hashes alike) but ADM
# canonicalizes apart, plus values that must never enter the key memo
KEY_VALUES = st.sampled_from([
    True, 1, False, 0, 1.0, 0.0, -0.0, "1", "", 2 ** 70, float("nan"),
    None, MISSING, [1], [1, "a"], Multiset([1]), {"a": 1}, ADate(1),
])
KEY_COLS = st.sampled_from([None, (0,), (2,), [1], (0, 1), (2, 0, 1)])

# mixed types on purpose: cross-type comparisons must agree too
VALUES = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "bb", "zz"]),
    st.booleans(),
    st.none(),
    st.just(MISSING),
    st.lists(st.integers(min_value=0, max_value=3), max_size=3),
)

TUPLES = st.lists(VALUES, min_size=WIDTH, max_size=WIDTH).map(tuple)

# total functions only: every registered impl here returns a value (no
# type errors) for arbitrary operands, so interpreter and closure can be
# compared on anything the generators produce
_BINARY = ["eq", "neq", "lt", "le", "gt", "ge", "deep_equal", "and", "or"]
_UNARY = ["not", "is_null", "is_missing", "is_unknown",
          "is_boolean", "is_number", "is_string"]

_LEAVES = st.one_of(
    VALUES.map(Const),
    st.integers(min_value=0, max_value=WIDTH - 1).map(ColumnRef),
)

EXPRS = st.recursive(
    _LEAVES,
    lambda child: st.one_of(
        st.builds(lambda f, a, b: FunctionCall(f, [a, b]),
                  st.sampled_from(_BINARY), child, child),
        st.builds(lambda f, a: FunctionCall(f, [a]),
                  st.sampled_from(_UNARY), child),
        st.builds(lambda c, t, d: CaseExpr([(c, t)], d),
                  child, child, child),
    ),
    max_leaves=12,
)


class TestCompiledAgreement:
    @settings(max_examples=200, deadline=None)
    @given(expr=EXPRS, tup=TUPLES)
    def test_compiled_matches_interpreted(self, expr, tup):
        fn = expr._compile()
        assert fn(tup) == expr.evaluate(tup)

    @settings(max_examples=100, deadline=None)
    @given(expr=EXPRS, tup=TUPLES)
    def test_compiled_predicate_matches(self, expr, tup):
        pred = compile_predicate(expr)
        assert pred(tup) == evaluate_predicate(expr, tup)

    def test_missing_beats_null_in_argument_propagation(self):
        # numeric_add doesn't handle unknowns: all args evaluate first,
        # then MISSING wins over null regardless of argument order
        for args in ([Const(None), Const(MISSING)],
                     [Const(MISSING), Const(None)]):
            expr = FunctionCall("numeric_add", args)
            assert expr.evaluate(()) is MISSING
            assert expr._compile()(()) is MISSING
        expr = FunctionCall("numeric_add", [Const(None), Const(1)])
        assert expr.evaluate(()) is None
        assert expr._compile()(()) is None

    def test_cross_type_comparison_is_null(self):
        expr = FunctionCall("eq", [Const(1), Const("a")])
        assert expr.evaluate(()) is None
        assert expr._compile()(()) is None

    def test_unknown_handling_functions_see_raw_unknowns(self):
        expr = FunctionCall("is_missing", [Const(MISSING)])
        assert expr.evaluate(()) is True
        assert expr._compile()(()) is True
        expr = FunctionCall("and", [Const(False), Const(MISSING)])
        assert expr.evaluate(()) is False
        assert expr._compile()(()) is False


class TestStructuredNodes:
    def _agree(self, expr, tup):
        assert expr._compile()(tup) == expr.evaluate(tup)

    def test_quantified(self):
        for some in (True, False):
            for coll in ([1, 2, 3], [], None, MISSING, 5):
                expr = Quantified(
                    some, "x", Const(coll),
                    FunctionCall("gt", [VarRef("x"), Const(1)]))
                assert expr._compile()((0,)) == expr.evaluate((0,))

    def test_object_constructor_drops_missing_fields(self):
        expr = ObjectConstructor([
            (Const("a"), Const(1)),
            (Const("b"), Const(MISSING)),       # dropped
            (Const(None), Const(2)),            # unknown name: dropped
        ])
        assert expr.evaluate(()) == {"a": 1}
        self._agree(expr, ())

    def test_collection_constructors(self):
        expr = CollectionConstructor([Const(1), ColumnRef(0)])
        self._agree(expr, (9,))
        bag = CollectionConstructor([Const(1), Const(1)], multiset=True)
        assert bag._compile()(()) == Multiset([1, 1])
        self._agree(bag, ())

    def test_comprehension_including_nested(self):
        inner = Comprehension(
            "y", VarRef("x"), None,
            FunctionCall("numeric_add", [VarRef("y"), Const(1)]))
        nested = Comprehension("x", ColumnRef(0), None, inner)
        tup = ([[1, 2], [3]],)
        assert nested.evaluate(tup) == [2, 3, 4]
        self._agree(nested, tup)
        filtered = Comprehension(
            "x", ColumnRef(0),
            FunctionCall("gt", [VarRef("x"), Const(1)]), VarRef("x"))
        self._agree(filtered, ([1, 2, 3],))
        for bad in (None, MISSING):
            self._agree(Comprehension("x", Const(bad), None, VarRef("x")),
                        ())


class TestKeyCache:
    def test_hits_and_misses(self):
        cache = KeyCache()
        tup = (1, "a", 2)
        kb = cache.key_bytes(tup, (0, 1))
        assert kb == plain_key_bytes(tup, (0, 1))
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.key_bytes(tup, (0, 1)) == kb
        assert cache.hits == 1
        # the hash memoizes in the same entry
        h1 = cache.key_hash(tup, (0, 1))
        h2 = cache.key_hash(tup, (0, 1))
        assert h1 == h2 and cache.hits == 3

    def test_distinct_columns_are_distinct_entries(self):
        cache = KeyCache()
        tup = (1, 2)
        assert cache.key_bytes(tup, (0,)) != cache.key_bytes(tup, (1,))

    def test_cap_still_computes(self):
        cache = KeyCache(max_entries=1)
        a, b = (1,), (2,)
        assert cache.key_bytes(a, None) == plain_key_bytes(a, None)
        assert cache.key_bytes(b, None) == plain_key_bytes(b, None)

    def test_flush_metrics(self):
        registry = get_registry()
        hits = registry.counter("hyracks.batch.key_cache_hits")
        misses = registry.counter("hyracks.batch.key_cache_misses")
        h0, m0 = hits.value, misses.value
        cache = KeyCache()
        cache.key_bytes((1,), None)
        cache.key_bytes((1,), None)
        cache.flush_metrics(registry)
        assert (hits.value - h0, misses.value - m0) == (1, 1)
        assert (cache.hits, cache.misses) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["key_bytes", "key_bytes_many", "key_hash"]),
        st.lists(st.tuples(KEY_VALUES, KEY_VALUES, KEY_VALUES),
                 min_size=1, max_size=4),
        KEY_COLS), min_size=1, max_size=12))
    def test_value_memo_matches_uncached(self, calls):
        # values Python treats as one dict key (True/1, 1/1.0, 0.0/-0.0)
        # but canonicalizes apart, interleaved on one cache
        cache = KeyCache()
        lookups = 0
        for kind, tuples, cols in calls:
            if kind == "key_bytes_many":
                got = cache.key_bytes_many(tuples, cols)
                assert got == [plain_key_bytes(t, cols) for t in tuples]
                lookups += len(tuples)
                continue
            for tup in tuples:
                key = tup if cols is None else tuple(tup[i] for i in cols)
                if kind == "key_bytes":
                    assert cache.key_bytes(tup, cols) == \
                        plain_key_bytes(tup, cols)
                else:
                    assert cache.key_hash(tup, cols) == hash_value(key)
                lookups += 1
        assert cache.hits + cache.misses == lookups
        for mk in cache._memo:
            vals = mk if type(mk) is tuple else (mk,)
            assert all(type(v) in (int, str) for v in vals)

    def test_key_path_canonicalizes_each_distinct_key_once(
            self, tmp_path, monkeypatch):
        """10,000 tuples over 10 distinct int keys, hash-routed and then
        joined in one job, canonicalize each distinct key once."""
        calls = []
        real = keys.canonical_bytes

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(keys, "canonical_bytes", counting)
        job = JobSpecification()
        left = job.add_operator(InMemorySourceOp(
            [(i % 10, i) for i in range(10_000)]))
        right = job.add_operator(InMemorySourceOp(
            [(k, -k) for k in range(10)]))
        join = job.add_operator(HybridHashJoinOp([0], [0]))
        sink = job.add_operator(ResultWriterOp())
        job.connect(HashPartitionConnector([0]), left, join, 0)
        job.connect(HashPartitionConnector([0]), right, join, 1)
        job.connect(OneToOneConnector(), join, sink)
        cluster = ClusterController(str(tmp_path / "c"), _config())
        try:
            result = cluster.run_job(job)
        finally:
            cluster.close()
        assert len(result.tuples) == 10_000
        assert len(calls) <= 10

    def test_hit_miss_counts_exact_and_repeatable(self, tmp_path):
        def deltas(run):
            registry = get_registry()
            hits = registry.counter("hyracks.batch.key_cache_hits")
            misses = registry.counter("hyracks.batch.key_cache_misses")
            h0, m0 = hits.value, misses.value
            cluster = ClusterController(str(tmp_path / f"run{run}"),
                                        _config(num_nodes=2))
            try:
                rows = cluster.run_job(_join_group_job()).tuples
            finally:
                cluster.close()
            assert sorted(rows) == [(g + 0.5, 80) for g in range(1000, 1025)]
            return hits.value - h0, misses.value - m0

        first = deltas(0)
        # 75 memo entries (join keys 0..49, partial-group keys 1000..1024)
        # plus the 50 partial rows' float keys, computed directly once at
        # routing and once at grouping
        assert first[1] == 75 + 2 * 50 and first[0] > 0
        assert [deltas(run) for run in range(1, 6)] == [first] * 5


def _config(num_nodes=1):
    return ClusterConfig(
        num_nodes=num_nodes, partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=64),
    )


def _join_group_job():
    """Join 2,000 tuples to 50 keys, count the matches per partition on
    an int column no connector has keyed (so several partitions' tasks
    meet the same new key), then sum the partial counts grouped on a
    float column (never memoized)."""
    job = JobSpecification()
    left = job.add_operator(InMemorySourceOp(
        [(i % 50, i) for i in range(2_000)]))
    right = job.add_operator(InMemorySourceOp(
        [(k, 1000 + k % 25) for k in range(50)]))
    join = job.add_operator(HybridHashJoinOp([0], [0]))
    partial = job.add_operator(HashGroupByOp(
        [3], [AggregateCall("count", ColumnRef(1))]))
    as_float = job.add_operator(AssignOp([
        FunctionCall("numeric_add", [ColumnRef(0), Const(0.5)])]))
    final = job.add_operator(HashGroupByOp(
        [2], [AggregateCall("sum", ColumnRef(1))]))
    sink = job.add_operator(ResultWriterOp())
    job.connect(HashPartitionConnector([0]), left, join, 0)
    job.connect(HashPartitionConnector([0]), right, join, 1)
    job.connect(OneToOneConnector(), join, partial)
    job.connect(OneToOneConnector(), partial, as_float)
    job.connect(HashPartitionConnector([2]), as_float, final)
    job.connect(OneToOneConnector(), final, sink)
    return job


def _join_job():
    job = JobSpecification()
    l_id = job.add_operator(InMemorySourceOp([(i % 10, i) for i in range(60)]))
    r_id = job.add_operator(InMemorySourceOp([(i, i * 2) for i in range(10)]))
    assign = job.add_operator(AssignOp([
        FunctionCall("numeric_add", [ColumnRef(0), Const(1)])]))
    select = job.add_operator(SelectOp(
        FunctionCall("gt", [ColumnRef(1), Const(5)])))
    join = job.add_operator(HybridHashJoinOp([0], [0]))
    sink = job.add_operator(ResultWriterOp())
    job.connect(OneToOneConnector(), l_id, assign)
    job.connect(OneToOneConnector(), assign, select)
    job.connect(HashPartitionConnector([0]), select, join, 0)
    job.connect(HashPartitionConnector([0]), r_id, join, 1)
    job.connect(OneToOneConnector(), join, sink)
    return job


class TestJobCompilation:
    def test_compiled_once_per_job_and_cache_hits_observable(self, tmp_path):
        registry = get_registry()
        jobs = registry.counter("expr.compile_jobs")
        exprs = registry.counter("expr.compile_exprs")
        nodes = registry.counter("expr.compile_nodes")
        cache_hits = registry.counter("hyracks.batch.key_cache_hits")
        j0, e0, n0, h0 = jobs.value, exprs.value, nodes.value, \
            cache_hits.value
        cluster = ClusterController(str(tmp_path / "c"), _config())
        try:
            result = cluster.run_job(_join_job())
        finally:
            cluster.close()
        # left keeps i = 6..59 (select on $1 > 5); every key matches
        assert len(result.tuples) == 54
        # one prepared job; its assign + select + (empty residual) compile
        # exactly once each, regardless of partition count
        assert jobs.value - j0 == 1
        assert exprs.value - e0 == 2
        # each expr is call(col, const): 3 IR nodes
        assert nodes.value - n0 == 2 * 3
        # the partitioning connectors canonicalized every routed tuple;
        # the join's build/probe reused those bytes through the job cache
        assert cache_hits.value - h0 > 0

    def test_expr_size_counts_nodes(self):
        expr = FunctionCall("eq", [ColumnRef(0), Const(1)])
        assert expr_size(expr) == 3
        assert expr_size(Const(1)) == 1

    def test_compile_expr_bumps_counters(self):
        registry = get_registry()
        e0 = registry.counter("expr.compile_exprs").value
        n0 = registry.counter("expr.compile_nodes").value
        compile_expr(FunctionCall("eq", [ColumnRef(0), Const(1)]))
        assert registry.counter("expr.compile_exprs").value - e0 == 1
        assert registry.counter("expr.compile_nodes").value - n0 == 3
