"""The projection pass: which top-level fields each read decodes.

``annotate_projections`` (run once at the end of ``optimize``) sets
``fields`` on every scan and index search to the constant field names
its record variable is read through; storage then builds records with
only those fields.  Each case checks the annotation EXPLAIN reports and
the rows against the scan plan and the independent reference evaluator
(``tests/reference.py``), which never projects.
"""

from dataclasses import dataclass

import pytest

from repro import connect
from repro.algebricks import logical as L
from repro.algebricks.rules import annotate_projections
from repro.algebricks.expressions import LCall, LConst, LVar
from tests.reference import assert_same_rows, reference_rows

_READS = ("DataSourceScan", "PrimaryIndexSearch", "SecondaryIndexSearch")


def _orders():
    return [{"id": i, "cid": i % 4, "note": f"n{i}", "day": 100 + i,
             "lines": [{"no": j, "amt": float(i * j)} for j in range(i % 3)],
             **({"tag": "odd"} if i % 2 else {})}
            for i in range(24)]


def _customers():
    return [{"id": c, "name": f"c{c}", "city": f"t{c % 2}",
             "prefs": {"mail": c % 2 == 0}}
            for c in range(4)]


@pytest.fixture(scope="module")
def shop(tmp_path_factory):
    db = connect(str(tmp_path_factory.mktemp("shop") / "db"))
    db.execute("""
        CREATE TYPE T AS { id: int };
        CREATE DATASET O(T) PRIMARY KEY id;
        CREATE DATASET C(T) PRIMARY KEY id;
        CREATE INDEX byCid ON O(cid);
    """)
    data = {"O": _orders(), "C": _customers()}
    for name, records in data.items():
        for record in records:
            db.cluster.insert_record(f"Default.{name}", dict(record))
    db.flush_dataset("O")       # O reads disk, C its memory component
    yield db, data
    db.close()


def _fields(db, query) -> dict:
    """dataset -> the ``fields`` EXPLAIN reports for its read (a sorted
    list, or None for a full decode)."""
    out = {}

    def visit(node):
        if node["operator"] in _READS:
            out[node["dataset"].split(".")[-1]] = node["fields"]
        for child in node["inputs"]:
            visit(child)

    visit(db.explain(query).logical_plan)
    return out


@pytest.mark.parametrize("query, ordered, fields", [
    ("SELECT VALUE [o.id, c.name] FROM O o, C c WHERE o.cid = c.id "
     "ORDER BY o.id;", True, {"O": ["cid", "id"], "C": ["id", "name"]}),
    ("SELECT VALUE o FROM O o WHERE o.day > 110;", False, {"O": None}),
    ("SELECT VALUE object_names(o) FROM O o;", False, {"O": None}),
    # a field access and a whole-record use of one record: the field the
    # access alone would skip is needed after all
    ("SELECT o.note AS note, o AS rec FROM O o WHERE o.cid = 1;", False,
     {"O": None}),
    ("SELECT VALUE COUNT(*) FROM O o;", False, {"O": []}),
    ("SELECT VALUE o.note FROM O o WHERE o.cid = 2;", False,
     {"O": ["note"]}),
    ("SELECT VALUE [o.id, o.tag] FROM O o WHERE o.id >= 20;", False,
     {"O": ["id", "tag"]}),
    ("SELECT VALUE [o.id, l.amt] FROM O o UNNEST o.lines l "
     "WHERE l.amt > 10 ORDER BY o.id, l.amt;", True,
     {"O": ["id", "lines"]}),
    ("SELECT city, COUNT(*) AS n FROM C c "
     "GROUP BY c.city AS city ORDER BY city;", True, {"C": ["city"]}),
    ("SELECT VALUE c.prefs.mail FROM C c WHERE c.name = 'c2';", False,
     {"C": ["name", "prefs"]}),
    ("SELECT VALUE o.nope FROM O o WHERE o.id = 3;", False,
     {"O": ["nope"]}),
], ids=["two-field-join", "select-value-record", "object-names",
        "field-plus-whole-record", "count-star", "secondary-lookup",
        "primary-search", "unnest", "group-by", "nested-path",
        "absent-field"])
def test_annotation_and_rows(shop, query, ordered, fields):
    db, data = shop
    assert _fields(db, query) == fields
    rows = db.query(query)
    assert_same_rows(rows, reference_rows(query, data, db.metadata), ordered)
    assert_same_rows(rows, db.query(query, enable_index_access=False),
                     ordered)


def test_explain_line_shows_fields(shop):
    db, _ = shop
    text = db.explain("SELECT VALUE o.note FROM O o WHERE o.day < 0;") \
        .logical_text
    assert "data-scan Default.O -> ['$$1', '$$2'] fields=['day', 'note']" \
        in text
    whole = db.explain("SELECT VALUE o FROM O o;").logical_text
    assert "fields=" not in whole


def test_delete_decodes_whole(tmp_path):
    db = connect(str(tmp_path / "db"))
    try:
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            CREATE INDEX byV ON D(v);
        """)
        for i in range(6):
            db.execute(f'INSERT INTO D ({{"id": {i}, "v": {i % 2}}});')
        query = "DELETE FROM D d WHERE d.v = 1;"
        assert _fields(db, query) == {"D": None}
        db.execute(query)
        assert sorted(db.query("SELECT VALUE d.id FROM D d;")) == [0, 2, 4]
        # the index entries of the deleted records went with them
        assert db.query("SELECT VALUE d.id FROM D d WHERE d.v = 1;") == []
    finally:
        db.close()


class TestPass:
    """The pass on hand-built plans: the uses no SQL++ text reaches."""

    def _scan(self):
        return L.DataSourceScan("Default.O", [1], 2)

    def _access(self, name, var=2):
        return LCall("field_access", [LVar(var), LConst(name)])

    def test_union_all_input_decodes_whole(self):
        left, right = self._scan(), L.DataSourceScan("Default.C", [3], 4)
        root = L.DistributeResult(LVar(5), inputs=[L.UnionAll(5, inputs=[
            L.Project([2], inputs=[left]), L.Project([4], inputs=[right])])])
        annotate_projections(root)
        assert left.fields is None and right.fields is None

    def test_dynamic_name_decodes_whole(self):
        scan = self._scan()
        name = LCall("field_access", [LVar(2), LVar(1)])
        annotate_projections(L.DistributeResult(name, inputs=[scan]))
        assert scan.fields is None

    def test_unknown_operator_decodes_whole(self):
        @dataclass
        class Mystery(L.LogicalOp):
            inputs: list

            def schema(self):
                return self.inputs[0].schema()

        scan = self._scan()
        annotate_projections(L.DistributeResult(
            self._access("a"), inputs=[Mystery([scan])]))
        assert scan.fields is None

    def test_distinct_on_the_record_decodes_whole(self):
        scan = self._scan()
        annotate_projections(L.DistributeResult(
            self._access("a"), inputs=[L.Distinct([2], inputs=[scan])]))
        assert scan.fields is None

    def test_field_accesses_anywhere_collect(self):
        scan = self._scan()
        select = L.Select(LCall("gt", [self._access("b"), LConst(1)]),
                          inputs=[scan])
        assign = L.Assign(7, self._access("a"), inputs=[select])
        annotate_projections(L.DistributeResult(LVar(7), inputs=[assign]))
        assert scan.fields == frozenset({"a", "b"})

