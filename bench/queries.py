"""The twelve named queries, their expected access paths, and an oracle.

The texts are frozen here (the first six are copied from
``tools/bench_runner.py``).  ``expected_rows`` computes every answer in
plain Python straight from the generated records — no ``repro`` import,
no shared comparator, serializer or function registry — so a bug common
to all of the system's execution paths cannot hide.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from datagen import delivery_cutoff


@dataclass(frozen=True)
class Query:
    name: str
    text: str
    ordered: bool        # the text has an ORDER BY that fixes row order
    access: tuple        # ((dataset, method, index | None), ...), sorted


DDL = {
    "analytic_mix": """
CREATE TYPE UserType AS { id: int, alias: string, age: int };
CREATE TYPE MessageType AS { messageId: int, authorId: int,
                             message: string };
CREATE DATASET Users(UserType) PRIMARY KEY id;
CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
CREATE INDEX byAge ON Users(age);
""",
    "tpcch_mix": """
CREATE TYPE WarehouseType AS { w_id: int };
CREATE TYPE CustomerType AS { c_id: int };
CREATE TYPE ItemType AS { i_id: int };
CREATE TYPE OrderType AS { o_id: int };
CREATE DATASET Warehouses(WarehouseType) PRIMARY KEY w_id;
CREATE DATASET Customers(CustomerType) PRIMARY KEY c_id;
CREATE DATASET Items(ItemType) PRIMARY KEY i_id;
CREATE DATASET Orders(OrderType) PRIMARY KEY o_id;
CREATE INDEX cWarehouse ON Customers(c_w_id);
CREATE INDEX oDelivery ON Orders (UNNEST o_orderline SELECT ol_delivery_d);
""",
    "point_ops": """
CREATE TYPE OrderType AS { o_id: int };
CREATE DATASET Orders(OrderType) PRIMARY KEY o_id;
CREATE INDEX oDelivery ON Orders (UNNEST o_orderline SELECT ol_delivery_d);
CREATE INDEX oCust ON Orders(o_c_id);
""",
    "ingest_restart": """
CREATE TYPE OrderType AS { o_id: int };
CREATE DATASET Orders(OrderType) PRIMARY KEY o_id;
CREATE INDEX oDelivery ON Orders (UNNEST o_orderline SELECT ol_delivery_d);
""",
}

PRIMARY_KEY = {"Users": "id", "Messages": "messageId", "Warehouses": "w_id",
               "Customers": "c_id", "Items": "i_id", "Orders": "o_id"}

_SCAN = "primary-scan"

ANALYTIC = (
    # named for its text, not its plan: since byAge exists the optimizer
    # answers the range through the index, and that is the baseline
    Query("scan_filter",
          "SELECT VALUE u.alias FROM Users u WHERE u.age > 40;",
          False, (("Users", "btree-index", "byAge"),)),
    Query("secondary_index_lookup",
          "SELECT VALUE u.alias FROM Users u WHERE u.age = 25;",
          False, (("Users", "btree-index", "byAge"),)),
    Query("sort_limit",
          "SELECT VALUE m.messageId FROM Messages m "
          "ORDER BY m.message DESC LIMIT 20;",
          True, (("Messages", _SCAN, None),)),
    Query("join_groupby",
          "SELECT age, COUNT(*) AS n "
          "FROM Users u JOIN Messages m ON m.authorId = u.id "
          "GROUP BY u.age AS age ORDER BY age;",
          True, (("Users", _SCAN, None), ("Messages", _SCAN, None))),
    Query("sort_heavy",
          "SELECT VALUE m.messageId FROM Messages m "
          "ORDER BY m.authorId, m.messageId DESC;",
          True, (("Messages", _SCAN, None),)),
    Query("group_heavy",
          "SELECT authorId, COUNT(*) AS n, MIN(m.messageId) AS lo, "
          "MAX(m.messageId) AS hi, SUM(m.messageId) AS total "
          "FROM Messages m GROUP BY m.authorId AS authorId "
          "ORDER BY authorId;",
          True, (("Messages", _SCAN, None),)),
)

DELIVERY_CUTOFF = delivery_cutoff(0.01)

TPCCH = (
    Query("ch_delivery_range",
          "SELECT VALUE [o.o_id, ol.ol_number] "
          "FROM Orders o UNNEST o.o_orderline ol "
          f"WHERE ol.ol_delivery_d < {DELIVERY_CUTOFF} "
          "ORDER BY o.o_id, ol.ol_number;",
          True, (("Orders", "array-index", "oDelivery"),)),
    Query("ch_item_revenue",
          "SELECT item, SUM(ol.ol_amount) AS revenue, COUNT(*) AS n "
          "FROM Orders o UNNEST o.o_orderline ol "
          "GROUP BY ol.ol_i_id AS item ORDER BY item;",
          True, (("Orders", _SCAN, None),)),
    # the PR 10 cross-product trap: Customers and Orders meet only
    # through Warehouses, so the written order starts with their product
    Query("ch_trap_join",
          "SELECT VALUE [c.c_id, o.o_id, w.w_name] "
          "FROM Customers c, Orders o, Warehouses w "
          "WHERE c.c_w_id = w.w_id AND o.o_w_id = w.w_id "
          "AND w.w_name = 'W001' ORDER BY c.c_id, o.o_id;",
          True, (("Customers", _SCAN, None), ("Orders", _SCAN, None),
                 ("Warehouses", _SCAN, None))),
    Query("ch_fk_chain",
          "SELECT VALUE [o.o_id, c.c_last, w.w_name] "
          "FROM Orders o, Customers c, Warehouses w "
          "WHERE o.o_c_id = c.c_id AND c.c_w_id = w.w_id "
          "AND w.w_state = 'CA' ORDER BY o.o_id;",
          True, (("Customers", _SCAN, None), ("Orders", _SCAN, None),
                 ("Warehouses", _SCAN, None))),
    Query("ch_item_join",
          "SELECT name, SUM(ol.ol_amount) AS revenue, COUNT(*) AS n "
          "FROM Orders o UNNEST o.o_orderline ol "
          "JOIN Items i ON ol.ol_i_id = i.i_id WHERE i.i_price > 90 "
          "GROUP BY i.i_name AS name ORDER BY name;",
          True, (("Items", _SCAN, None), ("Orders", _SCAN, None))),
    Query("ch_cust_balance",
          "SELECT COUNT(*) AS n, AVG(c.c_balance) AS avg_balance "
          "FROM Customers c WHERE c.c_w_id = 3;",
          True, (("Customers", "btree-index", "cWarehouse"),)),
)

QUERY_NAMES = tuple(q.name for q in ANALYTIC + TPCCH)


def _lines(orders):
    for o in orders:
        for ol in o.get("o_orderline") or ():
            yield o, ol


def expected_rows(name: str, data: dict) -> list:
    """The answer to query ``name`` over ``data`` (dataset -> records)."""
    if name == "scan_filter":
        return [u["alias"] for u in data["Users"] if u["age"] > 40]
    if name == "secondary_index_lookup":
        return [u["alias"] for u in data["Users"] if u["age"] == 25]
    if name == "sort_limit":
        top = sorted(data["Messages"], key=lambda m: m["message"],
                     reverse=True)
        return [m["messageId"] for m in top[:20]]
    if name == "join_groupby":
        age_of = {u["id"]: u["age"] for u in data["Users"]}
        counts = defaultdict(int)
        for m in data["Messages"]:
            if m["authorId"] in age_of:
                counts[age_of[m["authorId"]]] += 1
        return [{"age": a, "n": counts[a]} for a in sorted(counts)]
    if name == "sort_heavy":
        rows = sorted(data["Messages"],
                      key=lambda m: (m["authorId"], -m["messageId"]))
        return [m["messageId"] for m in rows]
    if name == "group_heavy":
        groups = defaultdict(list)
        for m in data["Messages"]:
            groups[m["authorId"]].append(m["messageId"])
        return [{"authorId": a, "n": len(ids), "lo": min(ids),
                 "hi": max(ids), "total": sum(ids)}
                for a, ids in sorted(groups.items())]
    orders = data["Orders"]
    if name == "ch_delivery_range":
        return sorted([o["o_id"], ol["ol_number"]] for o, ol in _lines(orders)
                      if ol["ol_delivery_d"] < DELIVERY_CUTOFF)
    if name == "ch_item_revenue":
        groups = defaultdict(list)
        for _, ol in _lines(orders):
            groups[ol["ol_i_id"]].append(ol["ol_amount"])
        return [{"item": i, "revenue": math.fsum(a), "n": len(a)}
                for i, a in sorted(groups.items())]
    if name == "ch_trap_join":
        rows = []
        for w in data["Warehouses"]:
            if w["w_name"] != "W001":
                continue
            for c in data["Customers"]:
                if c["c_w_id"] != w["w_id"]:
                    continue
                rows.extend([c["c_id"], o["o_id"], w["w_name"]]
                            for o in orders if o["o_w_id"] == w["w_id"])
        return sorted(rows)
    if name == "ch_fk_chain":
        w_of = {w["w_id"]: w for w in data["Warehouses"]}
        c_of = {c["c_id"]: c for c in data["Customers"]}
        rows = []
        for o in orders:
            c = c_of.get(o["o_c_id"])
            w = w_of.get(c["c_w_id"]) if c else None
            if w and w["w_state"] == "CA":
                rows.append([o["o_id"], c["c_last"], w["w_name"]])
        return sorted(rows)
    if name == "ch_item_join":
        dear = {i["i_id"]: i["i_name"] for i in data["Items"]
                if i["i_price"] > 90}
        groups = defaultdict(list)
        for _, ol in _lines(orders):
            if ol["ol_i_id"] in dear:
                groups[dear[ol["ol_i_id"]]].append(ol["ol_amount"])
        return [{"name": n, "revenue": math.fsum(a), "n": len(a)}
                for n, a in sorted(groups.items())]
    if name == "ch_cust_balance":
        balances = [c["c_balance"] for c in data["Customers"]
                    if c["c_w_id"] == 3]
        return [{"n": len(balances),
                 "avg_balance": math.fsum(balances) / len(balances)}]
    raise KeyError(name)


def _canonical(value):
    """A sort key for rows of mixed shape (dicts, lists, scalars)."""
    if isinstance(value, dict):
        return tuple((k, _canonical(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def _same(a, b) -> bool:
    # partial sums are combined in partition order, so float aggregates
    # may differ from the oracle's exact sum in the last digits
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def rows_match(got: list, want: list, ordered: bool) -> bool:
    if not ordered:
        got = sorted(got, key=_canonical)
        want = sorted(want, key=_canonical)
    return _same(got, want)
