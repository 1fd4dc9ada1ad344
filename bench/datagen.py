"""Frozen inputs for the benchmark: data sets and op streams, from a seed.

Vendored on purpose (plain Python, no ``repro`` import): a change under
``src/repro/datagen/`` must not be able to change what the benchmark
loads.  Record shapes follow ``tools/bench_runner.py`` (Users/Messages)
and ``src/repro/datagen/tpcch.py`` (TPC-CH) as of the commit that added
this file.

Every column is *stratified*: its multiset of values is fixed by the
table size, and the seed only decides which record gets which value.  A
predicate therefore selects the same number of rows under every seed
(exactly 1 % of orderlines fall under the ``ch_delivery_range`` cutoff),
so runs with different seeds do the same amount of work on different
data and the run-to-run spread measures the system, not the dice.

The *shape* of a workload does not come from the seed at all: how many
lines each order has, the order of op kinds, and which key positions are
read, overwritten and deleted are drawn from ``_SHAPE_SEED``.  Shape
decides when memory components fill and which statement a flush or merge
lands in; with only a handful of merges per run, one landing elsewhere
moves the model clock and the write amplification by several percent,
which would drown a real regression.  The seed decides every value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_SHAPE_SEED = 119          # see the module docstring
DELIVERY_DAY_LO = 1000
DELIVERY_DAY_HI = 3000          # closed range: 2001 distinct days
ITEM_COUNT = 100
CUSTOMERS_PER_WAREHOUSE = 30
ORDERS_PER_WAREHOUSE = 100
_STATES = ["CA", "WA", "OR", "NV", "AZ"]
#: per 100 orders: 2 lack ``o_orderline``, 3 have it empty, the other 95
#: carry 1..10 lines — the edge shapes array-index maintenance must handle
_LINE_COUNTS = [None, None, 0, 0, 0] + [1 + i % 10 for i in range(95)]


def stratified(rng: random.Random, values, n: int) -> list:
    """``n`` draws that cycle through ``values`` evenly, in seeded order."""
    values = list(values)
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def grid(lo: float, hi: float, n: int, digits: int) -> list:
    """``n`` evenly spaced values over [lo, hi)."""
    return [round(lo + (hi - lo) * i / n, digits) for i in range(n)]


# -- Users / Messages ---------------------------------------------------------

def analytic_data(seed: int, n_users: int, n_messages: int) -> dict:
    rng = random.Random(seed)
    ages = stratified(rng, [18 + j % 40 for j in range(n_users)], n_users)
    users = [{"id": i, "alias": f"u{i}", "age": ages[i]}
             for i in range(n_users)]
    authors = stratified(rng, range(n_users), n_messages)
    texts = list(range(n_messages))
    rng.shuffle(texts)
    messages = [{"messageId": i, "authorId": authors[i],
                 "message": f"msg-{texts[i]} " + "x" * (texts[i] % 40)}
                for i in range(n_messages)]
    return {"Users": users, "Messages": messages}


# -- TPC-CH ---------------------------------------------------------------------

def make_orders(rng: random.Random, ids, n_customers: int,
                n_warehouses: int) -> list:
    """Orders with the nested ``o_orderline`` array for the given ids."""
    ids = list(ids)
    n = len(ids)
    counts = stratified(random.Random(_SHAPE_SEED), _LINE_COUNTS, n)
    n_lines = sum(c or 0 for c in counts)
    items = stratified(rng, range(1, ITEM_COUNT + 1), n_lines)
    days = [int(d) for d in grid(DELIVERY_DAY_LO, DELIVERY_DAY_HI + 1,
                                 n_lines, 6)]
    rng.shuffle(days)
    quantities = stratified(rng, range(1, 11), n_lines)
    amounts = grid(1.0, 1000.0, n_lines, 2)
    rng.shuffle(amounts)
    customers = stratified(rng, range(1, n_customers + 1), n)
    districts = stratified(rng, range(1, 11), n)
    entry_days = stratified(
        rng, range(DELIVERY_DAY_LO - 90, DELIVERY_DAY_LO + 1), n)
    orders, line = [], 0
    for k, o_id in enumerate(ids):
        record = {
            "o_id": o_id,
            "o_w_id": 1 + (o_id - 1) % n_warehouses,
            "o_d_id": districts[k],
            "o_c_id": customers[k],
            "o_entry_d": entry_days[k],
        }
        if counts[k] is not None:
            record["o_orderline"] = [
                {"ol_number": j + 1, "ol_i_id": items[line + j],
                 "ol_delivery_d": days[line + j],
                 "ol_quantity": quantities[line + j],
                 "ol_amount": amounts[line + j]}
                for j in range(counts[k])
            ]
            line += counts[k]
        record["o_ol_cnt"] = counts[k] or 0
        orders.append(record)
    return orders


def tpcch_data(seed: int, scale: int) -> dict:
    """``scale`` warehouses; every other table's size derives from it."""
    rng = random.Random(seed)
    n_customers = scale * CUSTOMERS_PER_WAREHOUSE
    states = stratified(rng, _STATES, scale)
    taxes = grid(0.0, 0.2, scale, 4)
    rng.shuffle(taxes)
    warehouses = [{"w_id": w, "w_name": f"W{w:03d}",
                   "w_state": states[w - 1], "w_tax": taxes[w - 1]}
                  for w in range(1, scale + 1)]
    prices = grid(1.0, 100.0, ITEM_COUNT, 2)
    rng.shuffle(prices)
    items = [{"i_id": i, "i_name": f"item-{i:04d}", "i_price": prices[i - 1]}
             for i in range(1, ITEM_COUNT + 1)]
    districts = stratified(rng, range(1, 11), n_customers)
    balances = grid(-500.0, 5000.0, n_customers, 2)
    rng.shuffle(balances)
    customers = [{"c_id": c, "c_w_id": 1 + (c - 1) % scale,
                  "c_d_id": districts[c - 1], "c_last": f"CUST{c:05d}",
                  "c_balance": balances[c - 1]}
                 for c in range(1, n_customers + 1)]
    orders = make_orders(rng, range(1, scale * ORDERS_PER_WAREHOUSE + 1),
                         n_customers, scale)
    return {"Warehouses": warehouses, "Customers": customers,
            "Items": items, "Orders": orders}


def delivery_cutoff(selectivity: float) -> int:
    """``ol_delivery_d < cutoff`` selects this share of all orderlines."""
    span = DELIVERY_DAY_HI + 1 - DELIVERY_DAY_LO
    return DELIVERY_DAY_LO + round(span * selectivity)


def shrink(order: dict) -> dict:
    """The overwrite both write workloads use: same key, half the lines."""
    new = dict(order)
    lines = order.get("o_orderline") or []
    new["o_orderline"] = lines[: len(lines) // 2]
    new["o_ol_cnt"] = len(new["o_orderline"])
    return new


# -- op streams -------------------------------------------------------------------

@dataclass
class Step:
    """One call into the system.  ``kind``: pk | cust | range (reads),
    upsert | delete | feed (writes).  ``arg`` is the key, customer id,
    (lo, hi) day range or (lo, hi) key range; ``records`` the rows a
    write carries."""

    kind: str
    arg: object = None
    records: list = field(default_factory=list)


def point_ops_stream(seed: int, orders: list, n_customers: int,
                     n_warehouses: int, n_ops: int) -> list:
    """60 % primary-key lookups, 15 % ``o_c_id`` lookups, 5 % 0.1 %
    delivery-day ranges, 20 % single-row upserts (half new keys, half
    overwrites that shrink ``o_orderline``); 80 % of keys come from the
    newest 20 % of the loaded keys.  One step per op."""
    rng, shape = random.Random(seed + 1), random.Random(_SHAPE_SEED)
    current = {o["o_id"]: o for o in orders}
    ids = sorted(current)
    # recent orders are the hot ones: the newest fifth of the loaded keys
    cold, hot = ids[: -(len(ids) // 5)], ids[-(len(ids) // 5):]

    def pick_key():
        return shape.choice(hot if shape.random() < 0.8 else cold)

    kinds = stratified(shape, ["pk"] * 12 + ["cust"] * 3 + ["range"]
                       + ["new"] * 2 + ["overwrite"] * 2, n_ops)
    fresh = iter(make_orders(
        rng, range(len(ids) + 1, len(ids) + 1 + kinds.count("new")),
        n_customers, n_warehouses))
    width = max(1, round((DELIVERY_DAY_HI + 1 - DELIVERY_DAY_LO) * 0.001))
    steps = []
    for kind in kinds:
        if kind == "pk":
            steps.append(Step("pk", pick_key()))
        elif kind == "cust":
            steps.append(Step("cust", rng.randint(1, n_customers)))
        elif kind == "range":
            lo = rng.randint(DELIVERY_DAY_LO, DELIVERY_DAY_HI + 1 - width)
            steps.append(Step("range", (lo, lo + width)))
        else:
            record = (next(fresh) if kind == "new"
                      else shrink(current[pick_key()]))
            current[record["o_id"]] = record
            steps.append(Step("upsert", records=[record]))
    return steps


def ingest_stream(seed: int, n_rounds: int, batch: int, deletes: int,
                  n_customers: int, n_warehouses: int) -> list:
    """Per round: one feed batch of ``batch`` new orders, one
    ``batch``-row UPSERT (half new keys, half overwriting earlier keys
    with shorter arrays), one DELETE over a ``deletes``-wide range of
    earlier keys.  Returns a list of rounds, three steps each."""
    rng, shape = random.Random(seed + 2), random.Random(_SHAPE_SEED)
    per_round = batch + batch // 2
    fresh = make_orders(rng, range(1, n_rounds * per_round + 1),
                        n_customers, n_warehouses)
    current: dict = {}
    rounds = []
    for r in range(n_rounds):
        new = fresh[r * per_round:(r + 1) * per_round]
        fed, rows = new[:batch], new[batch:]
        for record in fed:
            current[record["o_id"]] = record
        earlier = sorted(current)
        for key in shape.sample(earlier, batch - len(rows)):
            rows.append(shrink(current[key]))
        for record in rows:
            current[record["o_id"]] = record
        lo = shape.randint(1, max(current) - deletes)
        for key in range(lo, lo + deletes):
            current.pop(key, None)
        rounds.append([Step("feed", records=fed),
                       Step("upsert", records=rows),
                       Step("delete", (lo, lo + deletes - 1))])
    return rounds
