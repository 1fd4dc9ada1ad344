"""Property test: every optimized plan satisfies the verifier and
answers like the reference evaluator.

Hypothesis generates random SQL++ queries from a datagen-style grammar
(the shapes the paper's workloads exercise: filters, joins, grouping,
ordering, quantifiers).  Plan verification is on for the whole test
suite (tests/conftest.py), so the verifier re-checks the plan after
every rewrite-rule firing and the job after generation — any rule that
corrupts a plan fails here naming itself.  The answer is then checked
against tests/reference.py, which interprets the unoptimized logical
plan over the Python lists loaded below.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st              # noqa: E402

from repro import connect                            # noqa: E402
from repro.analysis import plan_verification_enabled  # noqa: E402
from tests.reference import assert_same_rows, reference_rows  # noqa: E402

FIELDS = ("age", "score", "city", "id")
CITIES = ("irvine", "riverside", "sandiego", "la", "sf")

# what the reference evaluator scans; scores are pairwise distinct, so
# ORDER BY r.score is a total order
DATA = {
    "Recs": [{"id": i, "age": 18 + (i * 7) % 45,
              "score": (i * 13 % 100) / 10.0,
              "city": CITIES[i % len(CITIES)]} for i in range(40)],
    "Orders": [{"oid": i, "cust": i % 40} for i in range(30)],
}

_DB = None


def db():
    global _DB
    if _DB is None:
        _DB = connect(tempfile.mkdtemp() + "/db")
        _DB.execute("""
            CREATE TYPE RecType AS { id: int, age: int, score: double,
                                     city: string };
            CREATE TYPE OrderType AS { oid: int, cust: int };
            CREATE DATASET Recs(RecType) PRIMARY KEY id;
            CREATE DATASET Orders(OrderType) PRIMARY KEY oid;
            CREATE INDEX byAge ON Recs(age);
            CREATE INDEX byCity ON Recs(city);
        """)
        for name, records in DATA.items():
            for record in records:
                _DB.cluster.insert_record(f"Default.{name}", dict(record))
        _DB.flush_dataset("Recs")
    return _DB


def assert_matches_reference(instance, query, index_access=(True,)):
    expected = reference_rows(query, DATA, instance.metadata)
    # ORDER BY r.age has ties; the score and group-key orders do not
    total = "ORDER BY r.score" in query or "ORDER BY c" in query
    for flag in index_access:
        assert_same_rows(instance.query(query, enable_index_access=flag),
                         expected, ordered=total)


# --- the grammar ------------------------------------------------------------

comparison = st.builds(
    lambda field, op, against: f"r.{field} {op} {against}",
    st.sampled_from(FIELDS),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.one_of(
        st.integers(min_value=0, max_value=70).map(str),
        st.sampled_from([f"'{c}'" for c in CITIES]),
    ),
)

# parenthesized so a following AND starts a new conjunct instead of
# being absorbed into the SATISFIES body
quantifier = st.builds(
    lambda op, age: f"({op} o IN dataset('Orders') SATISFIES "
                    f"o.cust = r.id"
                    + (f" AND o.oid > {age}" if op == "SOME" else "") + ")",
    st.sampled_from(["SOME", "EVERY"]),
    st.integers(min_value=0, max_value=20),
)

predicate = st.one_of(comparison, quantifier)

where_clause = st.lists(predicate, min_size=0, max_size=3).map(
    lambda ps: (" WHERE " + " AND ".join(ps)) if ps else "")

order_limit = st.one_of(
    st.just(""),
    st.just(" ORDER BY r.age"),
    st.builds(lambda n: f" ORDER BY r.score DESC LIMIT {n}",
              st.integers(min_value=1, max_value=10)),
)


@st.composite
def select_query(draw):
    where = draw(where_clause)
    shape = draw(st.sampled_from(["value", "fields", "group", "join"]))
    if shape == "value":
        field = draw(st.sampled_from(FIELDS))
        tail = draw(order_limit)
        return f"SELECT VALUE r.{field} FROM Recs r{where}{tail};"
    if shape == "fields":
        fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                               max_size=3, unique=True))
        projs = ", ".join(f"r.{f} AS {f}" for f in fields)
        tail = draw(order_limit)
        return f"SELECT {projs} FROM Recs r{where}{tail};"
    if shape == "group":
        agg = draw(st.sampled_from(
            ["COUNT(*)", "SUM(r.age)", "MIN(r.score)", "MAX(r.age)"]))
        return (f"SELECT c AS city, {agg} AS m FROM Recs r{where} "
                f"GROUP BY r.city AS c ORDER BY c;")
    return (f"SELECT VALUE [r.id, o.oid] FROM Recs r "
            f"JOIN Orders o ON o.cust = r.id{where};")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=select_query())
def test_every_optimized_plan_verifies(query):
    assert plan_verification_enabled()
    instance = db()
    # the assertion is the verifier itself: any rule that breaks an
    # invariant raises PlanInvariantError naming the rule, and a bad
    # generated job raises JobInvariantError
    assert_matches_reference(instance, query)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=select_query())
def test_index_paths_verify_too(query):
    instance = db()
    assert_matches_reference(instance, query, index_access=(True, False))


# --- array (UNNEST) index fuzz ---------------------------------------------
#
# Same property, multi-valued: random element-level predicates over an
# array-indexed field must verify at every rewrite AND return exactly
# what the forced-scan plan returns.  Array shapes are adversarial on
# purpose: absent arrays, empty arrays, elements missing the key field,
# duplicate element values.

_ARR_DB = None


def arr_db():
    global _ARR_DB
    if _ARR_DB is None:
        _ARR_DB = connect(tempfile.mkdtemp() + "/db")
        _ARR_DB.execute("""
            CREATE TYPE OrdType AS { o_id: int };
            CREATE DATASET Ords(OrdType) PRIMARY KEY o_id;
            CREATE INDEX oDay ON Ords (UNNEST lines SELECT day);
        """)
        for i in range(60):
            rec = {"o_id": i}
            shape = i % 10
            if shape == 0:
                pass                       # no lines field at all
            elif shape == 1:
                rec["lines"] = []
            elif shape == 2:
                rec["lines"] = [{"n": 1}]  # element missing the key
            elif shape == 3:
                rec["lines"] = [{"n": 1, "day": i % 13},
                                {"n": 2, "day": i % 13}]   # duplicates
            else:
                rec["lines"] = [{"n": n, "day": (i * 3 + n) % 13}
                                for n in range(1, 1 + i % 4)]
            _ARR_DB.cluster.insert_record("Default.Ords", rec)
        _ARR_DB.flush_dataset("Ords")
    return _ARR_DB


array_predicate = st.builds(
    lambda op, day: f"l.day {op} {day}",
    st.sampled_from(["=", "<", "<=", ">", ">="]),
    st.integers(min_value=-1, max_value=14),
)

array_query = st.builds(
    lambda preds, tail: ("SELECT VALUE [o.o_id, l.n] FROM Ords o "
                         "UNNEST o.lines l WHERE "
                         + " AND ".join(preds) + tail + ";"),
    st.lists(array_predicate, min_size=1, max_size=3),
    st.sampled_from(["", " ORDER BY o.o_id, l.n"]),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(query=array_query)
def test_array_index_paths_verify_and_agree(query):
    assert plan_verification_enabled()
    instance = arr_db()
    with_idx = instance.query(query)
    without = instance.query(query, enable_index_access=False)
    if "ORDER BY" in query:
        assert with_idx == without
    else:
        # unordered output: tuple order is unspecified (the index path
        # visits records in element-key order, the scan in pk order),
        # but the multiset of answers must be identical
        assert sorted(map(repr, with_idx)) == sorted(map(repr, without))
