"""Logical expressions over query variables.

Algebricks plans reference *variables* (``$$n``, allocated by the
translator); the job generator later maps variables to tuple columns and
lowers these trees to the runtime IR (:mod:`repro.hyracks.expressions`).
The rewriter relies on :func:`free_vars` (for pushdown legality),
:func:`substitute` (for inlining), and :func:`fold_constants`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    CompilationError,
    IdentifierError,
    RuntimeError_,
    TypeError_,
)
from repro.functions.registry import is_scalar
from repro.hyracks import expressions as rt


class LExpr:
    """Base logical expression."""


@dataclass(frozen=True)
class LConst(LExpr):
    value: object

    def __repr__(self):
        return repr(self.value)


@dataclass(frozen=True)
class LVar(LExpr):
    """A plan variable ($$n)."""

    var: int

    def __repr__(self):
        return f"$${self.var}"


@dataclass(frozen=True)
class LLambdaVar(LExpr):
    """A variable bound inside the expression itself (quantifiers,
    inline-collection iteration) — not a plan variable."""

    name: str

    def __repr__(self):
        return f"%{self.name}"


class LCall(LExpr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args):
        if not is_scalar(name):
            raise CompilationError(f"unknown function {name}")
        self.name = name
        self.args = list(args)

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"

    def __eq__(self, other):
        return (isinstance(other, LCall) and self.name == other.name
                and self.args == other.args)

    def __hash__(self):
        return hash((self.name, tuple(map(id, self.args))))


class LQuant(LExpr):
    __slots__ = ("some", "var", "collection", "predicate")

    def __init__(self, some: bool, var: str, collection: LExpr,
                 predicate: LExpr):
        self.some = some
        self.var = var
        self.collection = collection
        self.predicate = predicate

    def __repr__(self):
        kw = "some" if self.some else "every"
        return f"{kw} %{self.var} in {self.collection!r}: {self.predicate!r}"


class LCase(LExpr):
    __slots__ = ("whens", "default")

    def __init__(self, whens, default: LExpr):
        self.whens = list(whens)
        self.default = default

    def __repr__(self):
        return f"case({len(self.whens)})"


class LObjCtor(LExpr):
    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = list(pairs)     # [(name_lexpr, value_lexpr)]

    def __repr__(self):
        return "{" + ", ".join(f"{n!r}: {v!r}" for n, v in self.pairs) + "}"


class LComp(LExpr):
    """Inline comprehension: subqueries over collection expressions."""

    __slots__ = ("var", "collection", "filter", "body")

    def __init__(self, var: str, collection: LExpr, filter: LExpr | None,
                 body: LExpr):
        self.var = var
        self.collection = collection
        self.filter = filter
        self.body = body

    def __repr__(self):
        cond = f" if {self.filter!r}" if self.filter is not None else ""
        return f"[{self.body!r} for %{self.var} in {self.collection!r}{cond}]"


class LCollCtor(LExpr):
    __slots__ = ("items", "multiset")

    def __init__(self, items, multiset: bool = False):
        self.items = list(items)
        self.multiset = multiset

    def __repr__(self):
        return ("{{" if self.multiset else "[") + \
            ", ".join(map(repr, self.items)) + \
            ("}}" if self.multiset else "]")


def _children(expr: LExpr) -> list[LExpr]:
    if isinstance(expr, LCall):
        return expr.args
    if isinstance(expr, LComp):
        out = [expr.collection]
        if expr.filter is not None:
            out.append(expr.filter)
        out.append(expr.body)
        return out
    if isinstance(expr, LQuant):
        return [expr.collection, expr.predicate]
    if isinstance(expr, LCase):
        out = []
        for c, r in expr.whens:
            out.extend((c, r))
        out.append(expr.default)
        return out
    if isinstance(expr, LObjCtor):
        out = []
        for n, v in expr.pairs:
            out.extend((n, v))
        return out
    if isinstance(expr, LCollCtor):
        return expr.items
    return []


def free_vars(expr: LExpr) -> set[int]:
    """Plan variables referenced anywhere under this expression."""
    if isinstance(expr, LVar):
        return {expr.var}
    out: set[int] = set()
    for child in _children(expr):
        out |= free_vars(child)
    return out


def field_reads(expr: LExpr, names: dict, whole: set) -> None:
    """Sort the uses of the plan variables keyed in ``names`` (var -> set
    of field names) under ``expr``: ``field_access($$v, 'f')`` adds
    ``'f'`` to ``names[v]``; any other occurrence of ``$$v`` (returned,
    passed to a function, accessed by a computed name) adds ``v`` to
    ``whole``."""
    if isinstance(expr, LVar):
        if expr.var in names:
            whole.add(expr.var)
        return
    if (isinstance(expr, LCall) and expr.name == "field_access"
            and isinstance(expr.args[0], LVar)
            and expr.args[0].var in names
            and isinstance(expr.args[1], LConst)
            and isinstance(expr.args[1].value, str)):
        names[expr.args[0].var].add(expr.args[1].value)
        return
    for child in _children(expr):
        field_reads(child, names, whole)


def rebuild(expr: LExpr, children: list[LExpr]) -> LExpr:
    """Rebuild an expression node with new children (same shape)."""
    if isinstance(expr, LCall):
        return LCall(expr.name, children)
    if isinstance(expr, LQuant):
        return LQuant(expr.some, expr.var, children[0], children[1])
    if isinstance(expr, LComp):
        if expr.filter is not None:
            return LComp(expr.var, children[0], children[1], children[2])
        return LComp(expr.var, children[0], None, children[1])
    if isinstance(expr, LCase):
        whens = []
        it = iter(children)
        for _ in expr.whens:
            whens.append((next(it), next(it)))
        return LCase(whens, next(it))
    if isinstance(expr, LObjCtor):
        it = iter(children)
        return LObjCtor([(next(it), next(it)) for _ in expr.pairs])
    if isinstance(expr, LCollCtor):
        return LCollCtor(children, expr.multiset)
    return expr


def transform(expr: LExpr, fn) -> LExpr:
    """Bottom-up transform: fn is applied to every node after its
    children have been rebuilt."""
    kids = _children(expr)
    if kids:
        expr = rebuild(expr, [transform(c, fn) for c in kids])
    return fn(expr)


def substitute(expr: LExpr, mapping: dict) -> LExpr:
    """Replace plan variables per ``mapping`` (var -> LExpr)."""

    def sub(node):
        if isinstance(node, LVar) and node.var in mapping:
            return mapping[node.var]
        return node

    return transform(expr, sub)


_FOLD_BLOCKLIST = {
    # don't fold random/context-dependent functions other than the
    # deterministic session clock (which IS folded, as AsterixDB does
    # per-statement)
}


def fold_constants(expr: LExpr) -> LExpr:
    """Evaluate calls whose arguments are all constants."""
    from repro.functions.registry import call

    def fold(node):
        if isinstance(node, LCall) and node.name not in _FOLD_BLOCKLIST:
            if all(isinstance(a, LConst) for a in node.args):
                try:
                    return LConst(call(node.name,
                                       *[a.value for a in node.args]))
                except (RuntimeError_, TypeError_, IdentifierError,
                        TypeError, ValueError, ArithmeticError,
                        AttributeError, KeyError, IndexError):
                    # leave evaluation errors to runtime -- but only
                    # *evaluation* errors: injected faults (resilience,
                    # memory pressure) and invariant violations must
                    # propagate, not get folded away silently
                    return node
        return node

    return transform(expr, fold)


def is_conjunction(expr: LExpr) -> bool:
    return isinstance(expr, LCall) and expr.name == "and"


def conjuncts(expr: LExpr) -> list[LExpr]:
    """Flatten nested ANDs into a conjunct list."""
    if is_conjunction(expr):
        out = []
        for arg in expr.args:
            out.extend(conjuncts(arg))
        return out
    return [expr]


def make_conjunction(parts: list[LExpr]) -> LExpr:
    if not parts:
        return LConst(True)
    if len(parts) == 1:
        return parts[0]
    return LCall("and", parts)


def to_runtime(expr: LExpr, var_to_col: dict) -> rt.RuntimeExpr:
    """Lower a logical expression to the runtime IR, mapping plan
    variables to tuple columns."""
    if isinstance(expr, LConst):
        return rt.Const(expr.value)
    if isinstance(expr, LVar):
        if expr.var not in var_to_col:
            raise CompilationError(f"variable $${expr.var} not in scope")
        return rt.ColumnRef(var_to_col[expr.var])
    if isinstance(expr, LLambdaVar):
        return rt.VarRef(expr.name)
    if isinstance(expr, LCall):
        return rt.FunctionCall(
            expr.name, [to_runtime(a, var_to_col) for a in expr.args]
        )
    if isinstance(expr, LQuant):
        return rt.Quantified(
            expr.some, expr.var,
            to_runtime(expr.collection, var_to_col),
            to_runtime(expr.predicate, var_to_col),
        )
    if isinstance(expr, LCase):
        whens = [
            (to_runtime(c, var_to_col), to_runtime(r, var_to_col))
            for c, r in expr.whens
        ]
        return rt.CaseExpr(whens, to_runtime(expr.default, var_to_col))
    if isinstance(expr, LComp):
        return rt.Comprehension(
            expr.var,
            to_runtime(expr.collection, var_to_col),
            None if expr.filter is None else
            to_runtime(expr.filter, var_to_col),
            to_runtime(expr.body, var_to_col),
        )
    if isinstance(expr, LObjCtor):
        pairs = [
            (to_runtime(n, var_to_col), to_runtime(v, var_to_col))
            for n, v in expr.pairs
        ]
        return rt.ObjectConstructor(pairs)
    if isinstance(expr, LCollCtor):
        return rt.CollectionConstructor(
            [to_runtime(i, var_to_col) for i in expr.items], expr.multiset
        )
    raise CompilationError(f"cannot lower expression {expr!r}")
