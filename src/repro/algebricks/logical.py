"""Algebricks logical operators (paper Fig. 5, feature 3).

A logical plan is a tree (DAG-free in this reproduction) of operators,
each producing a *schema*: the ordered list of live variables.  The
translator builds these from SQL++/AQL core ASTs; the rule-based rewriter
(:mod:`repro.algebricks.rules`) restructures them; the job generator
(:mod:`repro.algebricks.jobgen`) lowers them onto Hyracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebricks.expressions import LExpr, free_vars


class LogicalOp:
    """Base logical operator."""

    inputs: list

    def schema(self) -> list[int]:
        """Ordered live variables this operator produces."""
        raise NotImplementedError

    def exprs(self) -> list[LExpr]:
        """The expressions this operator evaluates."""
        return []

    def used_vars(self) -> set[int]:
        """Variables this operator's expressions reference."""
        out: set[int] = set()
        for expr in self.exprs():
            out |= free_vars(expr)
        return out

    def child_schema(self, i: int = 0) -> list[int]:
        return self.inputs[i].schema()

    def label(self) -> str:
        return type(self).__name__

    def pretty(self, depth: int = 0) -> str:
        lines = ["  " * depth + self.describe()]
        for child in self.inputs:
            lines.append(child.pretty(depth + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.label()


@dataclass
class EmptyTupleSource(LogicalOp):
    inputs: list = field(default_factory=list)

    def schema(self):
        return []

    def describe(self):
        return "empty-tuple-source"


def _fields_note(fields) -> str:
    """EXPLAIN's `` fields=[...]`` suffix of a projected read ('' when the
    record is decoded whole)."""
    return "" if fields is None else f" fields={sorted(fields)}"


@dataclass
class DataSourceScan(LogicalOp):
    """Scan of an internal dataset: produces pk vars then the record var.

    ``fields``, on this and the two index searches, is the set of
    top-level field names the plan reads the record through, filled in
    by the optimizer's projection pass; None means a full decode."""

    dataset: str
    pk_vars: list
    record_var: int
    inputs: list = field(default_factory=list)
    fields: frozenset | None = None

    def schema(self):
        return [*self.pk_vars, self.record_var]

    def describe(self):
        return (f"data-scan {self.dataset} -> "
                f"{['$$%d' % v for v in self.schema()]}"
                f"{_fields_note(self.fields)}")


@dataclass
class ExternalScan(LogicalOp):
    """In-situ scan of an external dataset (feature 6)."""

    dataset: str
    adapter: object
    record_var: int = 0
    inputs: list = field(default_factory=list)

    def schema(self):
        return [self.record_var]

    def describe(self):
        return f"external-scan {self.dataset} -> $${self.record_var}"


@dataclass
class Assign(LogicalOp):
    var: int
    expr: LExpr
    inputs: list = field(default_factory=list)

    def schema(self):
        return [*self.child_schema(), self.var]

    def exprs(self):
        return [self.expr]

    def describe(self):
        return f"assign $${self.var} := {self.expr!r}"


@dataclass
class Select(LogicalOp):
    condition: LExpr
    inputs: list = field(default_factory=list)

    def schema(self):
        return self.child_schema()

    def exprs(self):
        return [self.condition]

    def describe(self):
        return f"select {self.condition!r}"


@dataclass
class Project(LogicalOp):
    vars: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def schema(self):
        return list(self.vars)

    def used_vars(self):
        return set(self.vars)

    def describe(self):
        return f"project {['$$%d' % v for v in self.vars]}"


@dataclass
class Join(LogicalOp):
    """kind: inner | leftouter | leftsemi | leftanti.  Semi/anti joins keep
    only the left schema."""

    condition: LExpr
    kind: str = "inner"
    inputs: list = field(default_factory=list)

    def schema(self):
        if self.kind in ("leftsemi", "leftanti"):
            return self.child_schema(0)
        return [*self.child_schema(0), *self.child_schema(1)]

    def exprs(self):
        return [self.condition]

    def describe(self):
        return f"join[{self.kind}] {self.condition!r}"


@dataclass
class AggCall:
    """One aggregate computation inside GroupBy/Aggregate."""

    var: int
    function: str
    argument: LExpr

    def __repr__(self):
        return f"$${self.var} := {self.function}({self.argument!r})"


@dataclass
class GroupBy(LogicalOp):
    """keys: [(new_var, key_expr)]; aggregates: [AggCall]."""

    keys: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def schema(self):
        return [v for v, _ in self.keys] + [a.var for a in self.aggregates]

    def exprs(self):
        return ([e for _, e in self.keys]
                + [agg.argument for agg in self.aggregates])

    def describe(self):
        keys = ", ".join(f"$${v}:={e!r}" for v, e in self.keys)
        return f"group-by [{keys}] {self.aggregates!r}"


@dataclass
class Aggregate(LogicalOp):
    """Global (single-group) aggregation."""

    aggregates: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def schema(self):
        return [a.var for a in self.aggregates]

    def exprs(self):
        return [agg.argument for agg in self.aggregates]

    def describe(self):
        return f"aggregate {self.aggregates!r}"


@dataclass
class Order(LogicalOp):
    """pairs: [(expr, descending: bool)]; topk set by limit pushdown."""

    pairs: list = field(default_factory=list)
    topk: int | None = None
    inputs: list = field(default_factory=list)

    def schema(self):
        return self.child_schema()

    def exprs(self):
        return [e for e, _ in self.pairs]

    def describe(self):
        parts = [f"{e!r}{' desc' if d else ''}" for e, d in self.pairs]
        extra = f" topk={self.topk}" if self.topk else ""
        return f"order [{', '.join(parts)}]{extra}"


@dataclass
class Distinct(LogicalOp):
    vars: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def schema(self):
        return self.child_schema()

    def used_vars(self):
        return set(self.vars)

    def describe(self):
        return f"distinct {['$$%d' % v for v in self.vars]}"


@dataclass
class Limit(LogicalOp):
    count: int | None = None
    offset: int = 0
    inputs: list = field(default_factory=list)

    def schema(self):
        return self.child_schema()

    def describe(self):
        return f"limit {self.count} offset {self.offset}"


@dataclass
class Unnest(LogicalOp):
    var: int
    collection: LExpr
    outer: bool = False
    positional_var: int | None = None
    inputs: list = field(default_factory=list)

    def schema(self):
        extra = [self.var]
        if self.positional_var is not None:
            extra.append(self.positional_var)
        return [*self.child_schema(), *extra]

    def exprs(self):
        return [self.collection]

    def describe(self):
        return f"unnest $${self.var} <- {self.collection!r}"


@dataclass
class UnionAll(LogicalOp):
    """Bag union of two single-variable branches."""

    var: int = 0
    inputs: list = field(default_factory=list)

    def schema(self):
        return [self.var]

    def describe(self):
        return f"union-all -> $${self.var}"


@dataclass
class PrimaryIndexSearch(LogicalOp):
    """Bounded primary-index search (access-method rewrite of scan+select
    on pk)."""

    dataset: str
    pk_vars: list
    record_var: int
    lo: list | None = None            # list[LExpr] | None
    hi: list | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True
    inputs: list = field(default_factory=list)
    fields: frozenset | None = None

    def schema(self):
        return [*self.pk_vars, self.record_var]

    def describe(self):
        return (f"primary-search {self.dataset} "
                f"[{self.lo!r} .. {self.hi!r}]{_fields_note(self.fields)}")


@dataclass
class SecondaryIndexSearch(LogicalOp):
    """Secondary-index search feeding a primary lookup: produces pk vars
    and the record var (the lookup is fused here, [26]-style: the jobgen
    emits search -> sort-pk -> lookup)."""

    dataset: str
    index_name: str
    index_kind: str                   # btree | rtree | keyword | ngram | array
    pk_vars: list = field(default_factory=list)
    record_var: int = 0
    lo: list | None = None            # btree bounds
    hi: list | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True
    window: LExpr | None = None       # rtree
    text: LExpr | None = None         # inverted
    inputs: list = field(default_factory=list)
    fields: frozenset | None = None

    def schema(self):
        return [*self.pk_vars, self.record_var]

    def describe(self):
        detail = (f"[{self.lo!r}..{self.hi!r}]"
                  if self.index_kind in ("btree", "array")
                  else repr(self.window or self.text))
        return (f"{self.index_kind}-index-search "
                f"{self.dataset}.{self.index_name} {detail}"
                f"{_fields_note(self.fields)}")


@dataclass
class InsertDelete(LogicalOp):
    """op: insert | upsert | delete | load."""

    dataset: str
    op: str
    record_expr: LExpr | None = None          # insert/upsert/load
    pk_exprs: list | None = None               # delete
    inputs: list = field(default_factory=list)

    def schema(self):
        return []

    def exprs(self):
        return ([] if self.record_expr is None else [self.record_expr]) + [
            *(self.pk_exprs or ())]

    def describe(self):
        return f"{self.op} into {self.dataset}"


@dataclass
class DistributeResult(LogicalOp):
    """Plan root: emit the value of ``expr`` per tuple."""

    expr: LExpr = None
    inputs: list = field(default_factory=list)

    def schema(self):
        return []

    def exprs(self):
        return [] if self.expr is None else [self.expr]

    def describe(self):
        return f"distribute-result {self.expr!r}"


def walk(op: LogicalOp):
    """Yield every operator in the tree, top-down."""
    yield op
    for child in op.inputs:
        yield from walk(child)
