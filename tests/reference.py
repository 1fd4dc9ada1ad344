"""An independent reference evaluator for SQL++ queries (test-only).

Production answers a query through rewrite rules, cost-based reordering,
job generation, partitioned Hyracks operators, connectors and LSM
storage.  This module answers the same query with none of that: it
parses the text, lets the translator build the *unoptimized* logical
plan, and interprets that plan naively over plain Python lists of
records captured when the test loaded its data.  Rows are ``{variable:
value}`` dicts; joins are nested loops; grouping, DISTINCT and ORDER BY
use nothing but :func:`repro.adm.comparators.compare`; scalar and
aggregate functions come from the function registry (a left fold of the
registered ``step``).

What it deliberately shares with production: the parser, the translator
and the function registry — a bug there is invisible here.  What it does
not share: the optimizer, jobgen, every operator and connector, key
bytes, compiled expressions and sort keys, and storage.

Limits: scans come back in load order, so an answer is only comparable
as a sequence when the query's ORDER BY is total (:func:`assert_same_rows`
takes ``ordered``); a floating-point SUM/AVG folds in a different order
than the partitioned plan and may differ in the last digits.
"""

from functools import cmp_to_key

from repro.adm.comparators import compare
from repro.adm.values import MISSING, Multiset
from repro.algebricks.expressions import (
    LCall,
    LCase,
    LCollCtor,
    LComp,
    LConst,
    LLambdaVar,
    LObjCtor,
    LQuant,
    LVar,
)
from repro.functions.registry import call, resolve_aggregate
from repro.lang.sqlpp.parser import parse_sqlpp
from repro.lang.translator import Translator


def reference_rows(sqlpp_text: str, datasets: dict, metadata) -> list:
    """The rows ``sqlpp_text`` (one query statement) must return.

    ``datasets`` maps a dataset name — qualified (``Default.Recs``) or
    bare — to the list of record dicts the test inserted; ``metadata``
    is the instance's catalog (the translator resolves names and primary
    keys through it)."""
    (statement,) = parse_sqlpp(sqlpp_text)
    plan = Translator(metadata).translate_query(statement.query)
    return _Interpreter(datasets, metadata).rows(plan)


def assert_same_rows(actual: list, expected: list, ordered: bool = False):
    """ADM equality (``1 == 1.0``, object field order irrelevant) of two
    answers: as sequences when ``ordered``, as bags otherwise."""
    assert len(actual) == len(expected), (
        f"{len(actual)} rows, reference has {len(expected)}")
    if not ordered:
        actual = sorted(actual, key=cmp_to_key(compare))
        expected = sorted(expected, key=cmp_to_key(compare))
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert compare(a, e) == 0, f"row {i}: {a!r}, reference has {e!r}"


# --- expressions --------------------------------------------------------------

def _is_collection(value) -> bool:
    return isinstance(value, (list, Multiset))


def evaluate(expr, row: dict, lam: dict):
    """Value of a logical expression; ``row`` binds plan variables,
    ``lam`` the variables bound inside the expression itself."""
    if isinstance(expr, LConst):
        return expr.value
    if isinstance(expr, LVar):
        return row[expr.var]
    if isinstance(expr, LLambdaVar):
        return lam[expr.name]
    if isinstance(expr, LCall):
        return call(expr.name, *[evaluate(a, row, lam) for a in expr.args])
    if isinstance(expr, LCase):
        for cond, result in expr.whens:
            if evaluate(cond, row, lam) is True:
                return evaluate(result, row, lam)
        return evaluate(expr.default, row, lam)
    if isinstance(expr, LObjCtor):
        out = {}
        for name_expr, value_expr in expr.pairs:
            name = evaluate(name_expr, row, lam)
            value = evaluate(value_expr, row, lam)
            if name is not MISSING and name is not None \
                    and value is not MISSING:
                out[name] = value
        return out
    if isinstance(expr, LCollCtor):
        items = [evaluate(i, row, lam) for i in expr.items]
        return Multiset(items) if expr.multiset else items
    if isinstance(expr, (LQuant, LComp)):
        coll = evaluate(expr.collection, row, lam)
        if coll is MISSING or coll is None:
            return coll
        if isinstance(expr, LQuant):
            if not _is_collection(coll):
                return None
            verdicts = (evaluate(expr.predicate, row,
                                 {**lam, expr.var: item}) is True
                        for item in coll)
            return any(verdicts) if expr.some else all(verdicts)
        if not _is_collection(coll):
            coll = [coll]       # FROM over a non-collection iterates once
        out = []
        for item in coll:
            inner = {**lam, expr.var: item}
            if expr.filter is not None \
                    and evaluate(expr.filter, row, inner) is not True:
                continue
            value = evaluate(expr.body, row, inner)
            if isinstance(expr.body, LComp):
                out.extend(value)       # nested FROM terms flatten
            else:
                out.append(value)
        return out
    raise NotImplementedError(f"reference: expression {expr!r}")


def _aggregate(function: str, values: list):
    func = resolve_aggregate(function)
    state = func.init()
    for value in values:
        if func.skip_unknowns and (value is None or value is MISSING):
            continue
        state = func.step(state, value)
    return func.finish(state)


def _same(a: list, b: list) -> bool:
    return all(compare(x, y) == 0 for x, y in zip(a, b))


# --- plans ----------------------------------------------------------------------

class _Interpreter:
    def __init__(self, datasets: dict, metadata):
        self.datasets = datasets
        self.metadata = metadata

    def rows(self, op) -> list:
        return getattr(self, "_" + type(op).__name__)(op)

    def _input(self, op, i: int = 0) -> list:
        return self.rows(op.inputs[i])

    def _EmptyTupleSource(self, op):
        return [{}]

    def _DataSourceScan(self, op):
        records = self.datasets.get(op.dataset)
        if records is None:
            records = self.datasets[op.dataset.split(".")[-1]]
        pk_fields = self.metadata.pk_fields(op.dataset)
        out = []
        for record in records:
            row = {var: record[name]
                   for var, name in zip(op.pk_vars, pk_fields)}
            row[op.record_var] = record
            out.append(row)
        return out

    def _Assign(self, op):
        return [{**row, op.var: evaluate(op.expr, row, {})}
                for row in self._input(op)]

    def _Select(self, op):
        return [row for row in self._input(op)
                if evaluate(op.condition, row, {}) is True]

    def _Project(self, op):
        return [{v: row[v] for v in op.vars} for row in self._input(op)]

    def _Join(self, op):
        left, right = self._input(op, 0), self._input(op, 1)
        padding = {v: MISSING for v in op.inputs[1].schema()}
        out = []
        for lrow in left:
            matches = [m for m in ({**lrow, **rrow} for rrow in right)
                       if evaluate(op.condition, m, {}) is True]
            if op.kind == "inner":
                out.extend(matches)
            elif op.kind == "leftouter":
                out.extend(matches or [{**lrow, **padding}])
            elif op.kind == "leftsemi":
                if matches:
                    out.append(lrow)
            elif op.kind == "leftanti":
                if not matches:
                    out.append(lrow)
            else:
                raise NotImplementedError(f"reference: join {op.kind}")
        return out

    def _GroupBy(self, op):
        groups = []                      # [(key values, member rows)]
        for row in self._input(op):
            key = [evaluate(expr, row, {}) for _, expr in op.keys]
            for seen, members in groups:
                if _same(seen, key):
                    members.append(row)
                    break
            else:
                groups.append((key, [row]))
        out = []
        for key, members in groups:
            row = {var: value for (var, _), value in zip(op.keys, key)}
            self._fold(op.aggregates, members, row)
            out.append(row)
        return out

    def _Aggregate(self, op):
        row = {}
        self._fold(op.aggregates, self._input(op), row)
        return [row]

    @staticmethod
    def _fold(aggregates, members, into: dict):
        for agg in aggregates:
            into[agg.var] = _aggregate(
                agg.function,
                [evaluate(agg.argument, m, {}) for m in members])

    def _Order(self, op):
        def by_pairs(a, b):
            for (x, y, descending) in zip(a[0], b[0], directions):
                c = compare(x, y)
                if c:
                    return -c if descending else c
            return 0

        directions = [descending for _, descending in op.pairs]
        keyed = [([evaluate(e, row, {}) for e, _ in op.pairs], row)
                 for row in self._input(op)]
        keyed.sort(key=cmp_to_key(by_pairs))     # stable, like the spec
        return [row for _, row in keyed]

    def _Distinct(self, op):
        seen, out = [], []
        for row in self._input(op):
            key = [row[v] for v in op.vars]
            if not any(_same(key, other) for other in seen):
                seen.append(key)
                out.append(row)
        return out

    def _Limit(self, op):
        rows = self._input(op)[op.offset:]
        return rows if op.count is None else rows[:op.count]

    def _Unnest(self, op):
        out = []
        for row in self._input(op):
            coll = evaluate(op.collection, row, {})
            items = list(coll) if _is_collection(coll) else []
            if not items and op.outer:
                items = [MISSING]
            for position, item in enumerate(items):
                new = {**row, op.var: item}
                if op.positional_var is not None:
                    new[op.positional_var] = position
                out.append(new)
        return out

    def _UnionAll(self, op):
        # each branch carries exactly one variable: its result
        return [{op.var: value}
                for i in (0, 1)
                for row in self._input(op, i)
                for value in row.values()]

    def _DistributeResult(self, op):
        values = [evaluate(op.expr, row, {}) for row in self._input(op)]
        return [v for v in values if v is not MISSING]
