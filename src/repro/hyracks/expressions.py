"""Runtime scalar expressions: the interpreted IR and its compiler.

The Algebricks job generator compiles each logical expression into this
small IR, resolving variables to tuple field indexes.  Evaluation follows
SQL++ semantics: unknowns (MISSING/null) propagate through function calls
(see :mod:`repro.functions.registry`), field access on non-objects yields
MISSING, and quantified expressions short-circuit.

``env`` carries lambda-style bindings for variables introduced *inside* an
expression (quantified variables, inline-collection iteration); ordinary
query variables are compiled to :class:`ColumnRef` positions.

Operators never interpret the tree per tuple: :func:`compile_expr` walks
it **once per job** (``OperatorDescriptor.prepare``) and emits nested
closures, so per-tuple evaluation pays no attribute lookups, no registry
indirection, and no argument-list building for the common unary/binary
shapes.  That holds for every operator, including the one-shot uses
(index-search bounds, DML records and keys).  ``expr.evaluate(tup,
env)`` — tree interpretation, one Python-level dispatch per IR node —
is kept only as the reference semantics: compiled closures MUST be
deterministic and side-effect free, and must produce byte-identical
results to ``evaluate`` on every input, which the hypothesis suite in
tests/hyracks/test_expression_compile.py checks against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.values import MISSING, Multiset
from repro.common.errors import CompilationError
from repro.functions.registry import resolve


class RuntimeExpr:
    """Base class; ``evaluate(tup, env)`` returns an ADM value."""

    def evaluate(self, tup, env=None):
        """Interpret the tree over ``tup``.  No operator calls this (they
        run :func:`compile_expr` closures); it is the reference the
        compiled closures are tested against."""
        raise NotImplementedError

    def _compile(self):
        """Return a closure ``(tup, env=None) -> value`` equivalent to
        ``evaluate``.  The default falls back to the interpreter so new
        node types degrade gracefully instead of miscompiling."""
        return self.evaluate

    def columns(self) -> set[int]:
        """All ColumnRef indexes under this expression (projection
        pushdown and join-side analysis use this)."""
        out: set[int] = set()
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: set[int]) -> None:
        pass


@dataclass(frozen=True)
class Const(RuntimeExpr):
    value: object

    def evaluate(self, tup, env=None):
        return self.value

    def _compile(self):
        value = self.value
        return lambda tup, env=None: value

    def __repr__(self):
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(RuntimeExpr):
    index: int

    def evaluate(self, tup, env=None):
        return tup[self.index]

    def _compile(self):
        index = self.index
        return lambda tup, env=None: tup[index]

    def _collect_columns(self, out):
        out.add(self.index)

    def __repr__(self):
        return f"${self.index}"


@dataclass(frozen=True)
class VarRef(RuntimeExpr):
    """A lambda-bound variable (quantifier/inline-iteration binding)."""

    name: str

    def evaluate(self, tup, env=None):
        if env is None or self.name not in env:
            raise CompilationError(f"unbound variable {self.name}")
        return env[self.name]

    def _compile(self):
        name = self.name

        def lookup(tup, env=None):
            if env is None or name not in env:
                raise CompilationError(f"unbound variable {name}")
            return env[name]

        return lookup

    def __repr__(self):
        return f"VarRef({self.name})"


class FunctionCall(RuntimeExpr):
    """A call to a registered scalar function, with SQL++ unknown
    propagation applied here (pre-resolved for speed)."""

    __slots__ = ("name", "args", "_func")

    def __init__(self, name: str, args: list):
        self.name = name
        self.args = list(args)
        self._func = resolve(name)
        if not self._func.check_arity(len(self.args)):
            raise CompilationError(
                f"wrong number of arguments for {name}: {len(self.args)}"
            )

    def evaluate(self, tup, env=None):
        values = [a.evaluate(tup, env) for a in self.args]
        if not self._func.handles_unknowns:
            for v in values:
                if v is MISSING:
                    return MISSING
            for v in values:
                if v is None:
                    return None
        return self._func.impl(*values)

    def _compile(self):
        impl = self._func.impl
        handles = self._func.handles_unknowns
        arity = len(self.args)
        # Binary calls over direct column/constant operands are the bulk
        # of every predicate and key extractor (field_access($n, 'f'),
        # eq($i, $j), lt($n, c)); fold the operand fetch into the call
        # closure so each evaluation is one closure invocation total.
        if arity == 2:
            a, b = self.args
            if isinstance(a, ColumnRef) and isinstance(b, Const):
                i, c = a.index, b.value
                if handles:
                    return lambda tup, env=None: impl(tup[i], c)

                def col_const(tup, env=None):
                    v = tup[i]
                    if v is MISSING or c is MISSING:
                        return MISSING
                    if v is None or c is None:
                        return None
                    return impl(v, c)

                return col_const
            if isinstance(a, ColumnRef) and isinstance(b, ColumnRef):
                i, j = a.index, b.index
                if handles:
                    return lambda tup, env=None: impl(tup[i], tup[j])

                def col_col(tup, env=None):
                    va, vb = tup[i], tup[j]
                    if va is MISSING or vb is MISSING:
                        return MISSING
                    if va is None or vb is None:
                        return None
                    return impl(va, vb)

                return col_col
            fa, fb = a._compile(), b._compile()
            if handles:
                return lambda tup, env=None: impl(fa(tup, env), fb(tup, env))

            def binary(tup, env=None):
                va = fa(tup, env)
                vb = fb(tup, env)
                if va is MISSING or vb is MISSING:
                    return MISSING
                if va is None or vb is None:
                    return None
                return impl(va, vb)

            return binary
        if arity == 1:
            f0 = self.args[0]._compile()
            if handles:
                return lambda tup, env=None: impl(f0(tup, env))

            def unary(tup, env=None):
                v = f0(tup, env)
                if v is MISSING:
                    return MISSING
                if v is None:
                    return None
                return impl(v)

            return unary
        fns = [a._compile() for a in self.args]
        if handles:
            return lambda tup, env=None: impl(*[f(tup, env) for f in fns])

        def nary(tup, env=None):
            values = [f(tup, env) for f in fns]
            for v in values:
                if v is MISSING:
                    return MISSING
            for v in values:
                if v is None:
                    return None
            return impl(*values)

        return nary

    def _collect_columns(self, out):
        for a in self.args:
            a._collect_columns(out)

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"


class Quantified(RuntimeExpr):
    """SOME/EVERY var IN collection SATISFIES predicate.

    SQL++ semantics: SOME over an empty collection is false, EVERY is true;
    a non-collection operand yields null."""

    __slots__ = ("some", "var", "collection", "predicate")

    def __init__(self, some: bool, var: str, collection: RuntimeExpr,
                 predicate: RuntimeExpr):
        self.some = some
        self.var = var
        self.collection = collection
        self.predicate = predicate

    def evaluate(self, tup, env=None):
        coll = self.collection.evaluate(tup, env)
        if coll is MISSING:
            return MISSING
        if coll is None:
            return None
        if not isinstance(coll, (list, Multiset)):
            return None
        inner = dict(env) if env else {}
        for item in coll:
            inner[self.var] = item
            result = self.predicate.evaluate(tup, inner)
            if self.some and result is True:
                return True
            if not self.some and result is not True:
                return False
        return not self.some

    def _compile(self):
        coll_f = self.collection._compile()
        pred_f = self.predicate._compile()
        some, var = self.some, self.var

        def quantify(tup, env=None):
            coll = coll_f(tup, env)
            if coll is MISSING:
                return MISSING
            if coll is None:
                return None
            if not isinstance(coll, (list, Multiset)):
                return None
            inner = dict(env) if env else {}
            for item in coll:
                inner[var] = item
                result = pred_f(tup, inner)
                if some and result is True:
                    return True
                if not some and result is not True:
                    return False
            return not some

        return quantify

    def _collect_columns(self, out):
        self.collection._collect_columns(out)
        self.predicate._collect_columns(out)

    def __repr__(self):
        kw = "some" if self.some else "every"
        return (f"{kw} {self.var} in {self.collection!r} "
                f"satisfies {self.predicate!r}")


class CaseExpr(RuntimeExpr):
    """Searched CASE: WHEN cond THEN result ... ELSE default END."""

    __slots__ = ("whens", "default")

    def __init__(self, whens: list, default: RuntimeExpr):
        self.whens = list(whens)      # [(cond_expr, result_expr)]
        self.default = default

    def evaluate(self, tup, env=None):
        for cond, result in self.whens:
            if cond.evaluate(tup, env) is True:
                return result.evaluate(tup, env)
        return self.default.evaluate(tup, env)

    def _compile(self):
        whens = [(c._compile(), r._compile()) for c, r in self.whens]
        default_f = self.default._compile()

        def case(tup, env=None):
            for cond_f, result_f in whens:
                if cond_f(tup, env) is True:
                    return result_f(tup, env)
            return default_f(tup, env)

        return case

    def _collect_columns(self, out):
        for cond, result in self.whens:
            cond._collect_columns(out)
            result._collect_columns(out)
        self.default._collect_columns(out)

    def __repr__(self):
        return f"case({len(self.whens)} whens)"


class ObjectConstructor(RuntimeExpr):
    """{"name": expr, ...} — a MISSING value drops its field, per SQL++."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list):
        self.pairs = list(pairs)      # [(name_expr, value_expr)]

    def evaluate(self, tup, env=None):
        out = {}
        for name_expr, value_expr in self.pairs:
            name = name_expr.evaluate(tup, env)
            if name is MISSING or name is None:
                continue
            value = value_expr.evaluate(tup, env)
            if value is MISSING:
                continue
            out[name] = value
        return out

    def _compile(self):
        pairs = [(n._compile(), v._compile()) for n, v in self.pairs]

        def construct(tup, env=None):
            out = {}
            for name_f, value_f in pairs:
                name = name_f(tup, env)
                if name is MISSING or name is None:
                    continue
                value = value_f(tup, env)
                if value is MISSING:
                    continue
                out[name] = value
            return out

        return construct

    def _collect_columns(self, out):
        for name_expr, value_expr in self.pairs:
            name_expr._collect_columns(out)
            value_expr._collect_columns(out)

    def __repr__(self):
        return f"object({len(self.pairs)} fields)"


class CollectionConstructor(RuntimeExpr):
    """[...] or {{...}}."""

    __slots__ = ("items", "multiset")

    def __init__(self, items: list, multiset: bool = False):
        self.items = list(items)
        self.multiset = multiset

    def evaluate(self, tup, env=None):
        values = [i.evaluate(tup, env) for i in self.items]
        return Multiset(values) if self.multiset else values

    def _compile(self):
        fns = [i._compile() for i in self.items]
        if self.multiset:
            return lambda tup, env=None: Multiset(f(tup, env) for f in fns)
        return lambda tup, env=None: [f(tup, env) for f in fns]

    def _collect_columns(self, out):
        for i in self.items:
            i._collect_columns(out)

    def __repr__(self):
        braces = "{{}}" if self.multiset else "[]"
        return f"collection{braces}({len(self.items)})"


class Comprehension(RuntimeExpr):
    """An inline subquery over a collection-valued source:
    ``[body for var in collection if filter]``.

    Subqueries whose FROM sources are *expressions* (``FROM u.employment
    AS e WHERE ... SELECT VALUE ...``) compile to this; subqueries over
    datasets are decorrelated into joins by the translator.  Multiple
    sources nest (the body of the outer comprehension is the inner one,
    flattened by the compiler)."""

    __slots__ = ("var", "collection", "filter", "body")

    def __init__(self, var: str, collection: RuntimeExpr,
                 filter: RuntimeExpr | None, body: RuntimeExpr):
        self.var = var
        self.collection = collection
        self.filter = filter
        self.body = body

    def evaluate(self, tup, env=None):
        coll = self.collection.evaluate(tup, env)
        if coll is MISSING:
            return MISSING
        if coll is None:
            return None
        if not isinstance(coll, (list, Multiset)):
            coll = [coll]  # FROM over a non-collection iterates once
        inner = dict(env) if env else {}
        out = []
        for item in coll:
            inner[self.var] = item
            if self.filter is not None and \
                    self.filter.evaluate(tup, inner) is not True:
                continue
            value = self.body.evaluate(tup, inner)
            if isinstance(self.body, Comprehension):
                out.extend(value)  # nested sources flatten
            else:
                out.append(value)
        return out

    def _compile(self):
        coll_f = self.collection._compile()
        filter_f = None if self.filter is None else self.filter._compile()
        body_f = self.body._compile()
        var = self.var
        nested = isinstance(self.body, Comprehension)

        def comprehend(tup, env=None):
            coll = coll_f(tup, env)
            if coll is MISSING:
                return MISSING
            if coll is None:
                return None
            if not isinstance(coll, (list, Multiset)):
                coll = [coll]
            inner = dict(env) if env else {}
            out = []
            for item in coll:
                inner[var] = item
                if filter_f is not None and \
                        filter_f(tup, inner) is not True:
                    continue
                value = body_f(tup, inner)
                if nested:
                    out.extend(value)
                else:
                    out.append(value)
            return out

        return comprehend

    def _collect_columns(self, out):
        self.collection._collect_columns(out)
        if self.filter is not None:
            self.filter._collect_columns(out)
        self.body._collect_columns(out)

    def __repr__(self):
        return (f"[{self.body!r} for %{self.var} in {self.collection!r}"
                + (f" if {self.filter!r}" if self.filter else "") + "]")


class InlineQuery(RuntimeExpr):
    """A correlated subquery over expression-valued sources, evaluated
    per tuple (e.g. ``(FROM u.employment AS e WHERE ... SELECT VALUE e)``).

    Subqueries over *datasets* are decorrelated into joins by the
    translator; only collection-valued sources reach this node.  The plan
    is a closure produced by the compiler; it receives (tup, env) and
    returns a list."""

    __slots__ = ("closure",)

    def __init__(self, closure):
        self.closure = closure

    def evaluate(self, tup, env=None):
        return self.closure(tup, env)

    def _compile(self):
        return self.closure

    def __repr__(self):
        return "inline-query"


def evaluate_predicate(expr: RuntimeExpr, tup, env=None) -> bool:
    """WHERE/HAVING/join-condition semantics: only True passes."""
    return expr.evaluate(tup, env) is True


# --- the compiler -------------------------------------------------------------

def _subexprs(expr: RuntimeExpr):
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, Quantified):
        return (expr.collection, expr.predicate)
    if isinstance(expr, CaseExpr):
        out = [e for pair in expr.whens for e in pair]
        out.append(expr.default)
        return out
    if isinstance(expr, ObjectConstructor):
        return [e for pair in expr.pairs for e in pair]
    if isinstance(expr, CollectionConstructor):
        return expr.items
    if isinstance(expr, Comprehension):
        out = [expr.collection, expr.body]
        if expr.filter is not None:
            out.append(expr.filter)
        return out
    return ()


def expr_size(expr: RuntimeExpr) -> int:
    """IR node count (the ``expr.compile_nodes`` metric's unit)."""
    return 1 + sum(expr_size(child) for child in _subexprs(expr))


def compile_expr(expr: RuntimeExpr):
    """Compile ``expr`` into a closure ``(tup, env=None) -> ADM value``.

    The closure is byte-identical to ``expr.evaluate`` on every input —
    same values, same unknown propagation (all arguments evaluated, then
    MISSING beats null), same errors.  Compilation happens once per job
    (``OperatorDescriptor.prepare``), so its cost is amortized over every
    tuple of every partition; metrics: ``expr.compile_exprs`` counts
    top-level compilations, ``expr.compile_nodes`` the IR nodes visited.
    """
    from repro.observability.metrics import get_registry

    registry = get_registry()
    registry.counter("expr.compile_exprs").inc()
    registry.counter("expr.compile_nodes").inc(expr_size(expr))
    return expr._compile()


def compile_predicate(expr: RuntimeExpr):
    """Compile a WHERE/HAVING/join condition into ``(tup, env=None) ->
    bool`` with :func:`evaluate_predicate` semantics (only True passes)."""
    fn = compile_expr(expr)
    return lambda tup, env=None: fn(tup, env) is True


def compile_expr_batch(expr: RuntimeExpr, fn=None):
    """Compile ``expr`` into a frame-level evaluator ``(tuples) ->
    [values]``, one value per tuple in order — what the batched
    aggregate runtime feeds to ``AggregateState.step_many``.

    The common aggregate-argument shapes skip per-tuple closure dispatch
    entirely: a ``ColumnRef`` becomes a plain column extraction and a
    ``Const`` a repeated value; everything else runs the per-tuple
    closure inside one comprehension (pass the already-compiled closure
    as ``fn`` to avoid compiling — and counting — the expression
    twice).  Values are identical to evaluating per tuple (the closures
    are deterministic and side-effect free by contract).
    """
    if isinstance(expr, ColumnRef):
        index = expr.index
        return lambda frame: [t[index] for t in frame]
    if isinstance(expr, Const):
        value = expr.value
        return lambda frame: [value] * len(frame)
    if fn is None:
        fn = compile_expr(expr)
    return lambda frame: [fn(t) for t in frame]
