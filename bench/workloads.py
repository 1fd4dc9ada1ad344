"""The four workloads: what is loaded, what is run, what must come back.

Everything here is plain Python derived from ``--seed`` (no ``repro``
import): the program under test sees only the DDL, the generated
records and the statement texts.

Work is fixed by operation count, not by a timer.  ``--seconds`` scales
the count (``ops = max(100, rate x seconds)``, the rates sized on the
reference sandbox so the timed phase lasts about ``--seconds``), because
a timer would hand a faster commit a larger database at the end of the
run and with it different merge depths, write and space amplification:
the two sides of a comparison would no longer have done the same work.
With one client and no timers every count then repeats exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import datagen
import queries
from datagen import Step

WARMUP_OPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    main: str                # dataset behind the first COUNT(*) after restart
    tail_percentile: int     # highest percentile with >= 10 samples beyond it
    ops_per_second: float    # sizing constant: ops = max(100, this x seconds)
    check_ops: int           # op count of the reduced-scale self-test


WORKLOADS = {w.name: w for w in (
    Workload("analytic_mix", "Messages", 90, 8.4, 4),
    Workload("tpcch_mix", "Orders", 90, 8.4, 4),
    Workload("point_ops", "Orders", 99, 300.0, 150),
    Workload("ingest_restart", "Orders", 90, 8.4, 6),
)}

#: (full, reduced) sizes; the reduced scale serves ``--check`` only
_USERS, _MESSAGES = (200, 50), (1600, 400)
_TPCCH_SCALE = 3                   # ch_cust_balance needs warehouse 3
_POINT_ORDERS = (1000, 200)
_ORDER_CUSTOMERS, _ORDER_WAREHOUSES = 300, 10     # the two Orders-only workloads
_INGEST_BATCH, _INGEST_DELETES = 16, 2

_TEMPLATES = {
    "pk": "SELECT VALUE o FROM Orders o WHERE o.o_id = {0};",
    "cust": "SELECT VALUE o.o_id FROM Orders o WHERE o.o_c_id = {0};",
    "range": "SELECT VALUE [o.o_id, ol.ol_number] "
             "FROM Orders o UNNEST o.o_orderline ol "
             "WHERE ol.ol_delivery_d >= {0} AND ol.ol_delivery_d < {1};",
    "delete": "DELETE FROM Orders o WHERE o.o_id >= {0} AND o.o_id <= {1};",
}
_ACCESS = {
    "pk": (("Orders", "primary-index", None),),
    "cust": (("Orders", "btree-index", "oCust"),),
    "range": (("Orders", "array-index", "oDelivery"),),
    "delete": (("Orders", "primary-index", None),),
}
READ_KINDS = ("query", "pk", "cust", "range")


@dataclass
class Inputs:
    workload: Workload
    ddl: str
    load: dict                       # dataset -> records, in load order
    ops: list                        # op -> [Step, ...]; warm-up ops first
    expected: dict = field(default_factory=dict)   # query name -> rows
    reduced: bool = False            # the self-test's scale: no claims from it


def statement(step: Step) -> str | None:
    """The SQL++ text of a step (None for a feed batch)."""
    if step.kind == "query":
        return step.arg.text
    if step.kind == "upsert":
        rows = step.records[0] if len(step.records) == 1 else step.records
        return f"UPSERT INTO Orders ({json.dumps(rows)});"
    if step.kind == "feed":
        return None
    args = step.arg if isinstance(step.arg, tuple) else (step.arg,)
    return _TEMPLATES[step.kind].format(*args)


def access_of(step: Step) -> tuple:
    """Expected access paths, as (dataset, method, index) triples."""
    if step.kind == "query":
        return step.arg.access
    return _ACCESS.get(step.kind, ())


def op_count(workload: Workload, seconds: float, check: bool) -> int:
    if check:
        return workload.check_ops
    return max(100, round(workload.ops_per_second * seconds))


def build(name: str, seed: int, seconds: float, check: bool) -> Inputs:
    workload = WORKLOADS[name]
    n_ops = op_count(workload, seconds, check) + WARMUP_OPS
    if name in ("analytic_mix", "tpcch_mix"):
        if name == "analytic_mix":
            named = queries.ANALYTIC
            load = datagen.analytic_data(seed, _USERS[check],
                                         _MESSAGES[check])
        else:
            named = queries.TPCCH
            load = datagen.tpcch_data(seed, _TPCCH_SCALE)
        round_ = [Step("query", q) for q in named]
        return Inputs(workload, queries.DDL[name], load, [round_] * n_ops,
                      {q.name: queries.expected_rows(q.name, load)
                       for q in named}, reduced=check)
    if name == "point_ops":
        orders = datagen.make_orders(
            random.Random(seed), range(1, _POINT_ORDERS[check] + 1),
            _ORDER_CUSTOMERS, _ORDER_WAREHOUSES)
        steps = datagen.point_ops_stream(seed, orders, _ORDER_CUSTOMERS,
                                         _ORDER_WAREHOUSES, n_ops)
        return Inputs(workload, queries.DDL[name], {"Orders": orders},
                      [[s] for s in steps], reduced=check)
    rounds = datagen.ingest_stream(seed, n_ops, _INGEST_BATCH,
                                   _INGEST_DELETES, _ORDER_CUSTOMERS,
                                   _ORDER_WAREHOUSES)
    return Inputs(workload, queries.DDL[name], {"Orders": []}, rounds,
                  reduced=check)
