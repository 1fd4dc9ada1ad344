"""Property test: cost-based and syntactic plans both answer like the
reference evaluator.

Hypothesis generates multi-join SQL++ queries (the shapes join
reordering, build-side selection, and broadcast connectors fire on) and
runs each twice — stats-driven and with ``enable_cost_based=False``.
Plan verification is on suite-wide, so every reordered plan re-verifies
at each rewrite; on top of that both answers must equal what
tests/reference.py computes from the unoptimized logical plan over the
Python lists loaded below: as a sequence when the query has an ORDER BY
on a unique key, as a bag otherwise.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st              # noqa: E402

from repro import connect                            # noqa: E402
from tests.reference import assert_same_rows, reference_rows  # noqa: E402

REGIONS = ("north", "south", "east", "west")
DATA = {
    "Custs": [{"cid": i, "region": REGIONS[i % 4]} for i in range(12)],
    "Orders": [{"oid": i, "cust": i % 12, "item": (i * 7) % 25,
                "amount": float(i % 40)} for i in range(80)],
    "Items": [{"iid": i, "price": i * 1.5} for i in range(25)],
}

_DB = None


def db():
    global _DB
    if _DB is None:
        _DB = connect(tempfile.mkdtemp() + "/db")
        _DB.execute("""
            CREATE TYPE CustType AS { cid: int, region: string };
            CREATE TYPE OrderType AS { oid: int, cust: int, item: int,
                                       amount: double };
            CREATE TYPE ItemType AS { iid: int, price: double };
            CREATE DATASET Custs(CustType) PRIMARY KEY cid;
            CREATE DATASET Orders(OrderType) PRIMARY KEY oid;
            CREATE DATASET Items(ItemType) PRIMARY KEY iid;
        """)
        for name, records in DATA.items():
            for record in records:
                _DB.cluster.insert_record(f"Default.{name}", dict(record))
            # flush so statistics come from persisted component
            # synopses, not just the memory-component pass
            _DB.flush_dataset(name)
    return _DB


where_clause = st.one_of(
    st.just(""),
    st.builds(lambda n: f" AND o.amount > {n}",
              st.integers(min_value=0, max_value=35)),
    st.builds(lambda r: f" AND c.region = '{r}'",
              st.sampled_from(REGIONS)),
)


@st.composite
def join_query(draw):
    where = draw(where_clause)
    # the written order varies so the reorder rule sees good and bad
    # syntactic orders alike
    froms = draw(st.permutations(
        ["Custs c", "Orders o", "Items i"]))
    shape = draw(st.sampled_from(["ordered", "bag", "two_way"]))
    if shape == "two_way":
        return (f"SELECT VALUE [o.oid, c.region] "
                f"FROM Orders o, Custs c "
                f"WHERE o.cust = c.cid{where} ORDER BY o.oid;", True)
    sql = (f"SELECT VALUE [o.oid, c.region, i.price] "
           f"FROM {', '.join(froms)} "
           f"WHERE o.cust = c.cid AND o.item = i.iid{where}")
    if shape == "ordered":
        return (sql + " ORDER BY o.oid;", True)
    return (sql + ";", False)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q=join_query())
def test_cost_based_plans_answer_equivalent(q):
    query, ordered = q
    instance = db()
    expected = reference_rows(query, DATA, instance.metadata)
    # ``ordered`` = ORDER BY on the unique oid: order must match too
    assert_same_rows(instance.query(query), expected, ordered)
    assert_same_rows(instance.query(query, enable_cost_based=False),
                     expected, ordered)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q=join_query())
def test_estimates_annotated_on_explain(q):
    query, _ = q
    instance = db()
    explained = instance.explain(query)

    def walk(node):
        yield node
        for child in node["inputs"]:
            yield from walk(child)

    assert all("estimated_cardinality" in n
               for n in walk(explained.logical_plan))
