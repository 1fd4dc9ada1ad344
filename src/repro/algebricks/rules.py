"""The rule-based rewriter (paper Fig. 5: "rewrite rules" boxes).

Rules are functions ``(op, ctx) -> (op, changed)`` applied bottom-up to a
fixpoint.  The headline rewrites:

* constant folding (Fig. 3(c)'s WITH clause becomes two constants),
* conjunction splitting + select pushdown (filters sink toward sources,
  through assigns, unnests, and into join branches),
* join-condition extraction (cross joins + equality selects become
  equi-joins the physical layer can hash),
* access-method introduction (select-over-scan becomes a primary-index
  range search or a secondary B+ tree / R-tree / inverted index search —
  the paper's feature 8 meeting its feature 3),
* limit-into-order pushdown (top-K sort),
* dead-assign removal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.adm.comparators import comparable, compare
from repro.observability.metrics import get_registry

from repro.algebricks.expressions import (
    LCall,
    LConst,
    LVar,
    conjuncts,
    field_reads,
    fold_constants,
    free_vars,
    make_conjunction,
)
from repro.algebricks.logical import (
    Aggregate,
    Assign,
    DataSourceScan,
    Distinct,
    DistributeResult,
    EmptyTupleSource,
    ExternalScan,
    GroupBy,
    Join,
    Limit,
    LogicalOp,
    Order,
    PrimaryIndexSearch,
    Project,
    SecondaryIndexSearch,
    Select,
    UnionAll,
    Unnest,
    walk,
)


@dataclass
class OptimizerContext:
    """What rules may consult: the catalog view and feature switches."""

    metadata: object                  # MetadataView protocol (see below)
    enable_index_access: bool = True
    enable_cost_based: bool = True    # statistics-driven rewrites on/off
    next_var: object = None           # callable allocating fresh variables
    recorder: object = None           # observability.RewriteRecorder | None


class MetadataView:
    """The catalog interface rules consult.

    ``pk_fields(dataset)``, ``secondary_indexes(dataset)`` (list of
    SecondaryIndexSpec), ``is_external(dataset)``."""

    def pk_fields(self, dataset: str) -> tuple:
        raise NotImplementedError

    def secondary_indexes(self, dataset: str) -> list:
        raise NotImplementedError

    def is_external(self, dataset: str) -> bool:
        raise NotImplementedError

    def dataset_statistics(self, dataset: str):
        """Per-dataset statistics rollup (a
        :class:`~repro.storage.lsm.synopsis.ComponentSynopsis`), or None
        when unavailable.  Default None keeps plain catalog fakes
        working; the cost-based rules degrade to syntactic behavior."""
        return None


# --- individual rules ------------------------------------------------------------

def rule_fold_constants(op: LogicalOp, ctx) -> tuple[LogicalOp, bool]:
    changed = False
    if isinstance(op, Select):
        folded = fold_constants(op.condition)
        changed = repr(folded) != repr(op.condition)
        op.condition = folded
    elif isinstance(op, Assign):
        folded = fold_constants(op.expr)
        changed = repr(folded) != repr(op.expr)
        op.expr = folded
    elif isinstance(op, Join):
        folded = fold_constants(op.condition)
        changed = repr(folded) != repr(op.condition)
        op.condition = folded
    return op, changed


def rule_break_select_conjunctions(op, ctx):
    if not isinstance(op, Select):
        return op, False
    parts = conjuncts(op.condition)
    if len(parts) <= 1:
        return op, False
    child = op.inputs[0]
    for part in reversed(parts):
        child = Select(part, inputs=[child])
    return child, True


def rule_remove_true_selects(op, ctx):
    if isinstance(op, Select) and isinstance(op.condition, LConst) \
            and op.condition.value is True:
        return op.inputs[0], True
    return op, False


def rule_push_select_down(op, ctx):
    """Push one Select one step down when legal."""
    if not isinstance(op, Select):
        return op, False
    child = op.inputs[0]
    needed = free_vars(op.condition)
    if isinstance(child, Assign) and child.var not in needed:
        # select(assign(x)) -> assign(select(x))
        op.inputs = child.inputs
        child.inputs = [op]
        return child, True
    if isinstance(child, Unnest):
        produced = {child.var}
        if child.positional_var is not None:
            produced.add(child.positional_var)
        if not needed & produced:
            op.inputs = child.inputs
            child.inputs = [op]
            return child, True
    if isinstance(child, Order) and child.topk is None:
        op.inputs = child.inputs
        child.inputs = [op]
        return child, True
    if isinstance(child, Join):
        left_schema = set(child.child_schema(0))
        right_schema = set(child.child_schema(1))
        if needed <= left_schema:
            op.inputs = [child.inputs[0]]
            child.inputs[0] = op
            return child, True
        if needed <= right_schema and child.kind == "inner":
            op.inputs = [child.inputs[1]]
            child.inputs[1] = op
            return child, True
    return op, False


def rule_selects_into_join_condition(op, ctx):
    """A Select stuck above a join (references both sides) becomes part of
    the join condition, enabling equi-join detection in the physical
    layer."""
    if not isinstance(op, Select):
        return op, False
    child = op.inputs[0]
    if not isinstance(child, Join) or child.kind not in ("inner",):
        return op, False
    needed = free_vars(op.condition)
    left = set(child.child_schema(0))
    right = set(child.child_schema(1))
    if needed <= left or needed <= right:
        return op, False  # pushdown rule will handle it
    if not needed <= (left | right):
        return op, False
    parts = conjuncts(child.condition)
    if len(parts) == 1 and isinstance(parts[0], LConst) \
            and parts[0].value is True:
        parts = []
    parts.append(op.condition)
    child.condition = make_conjunction(parts)
    return child, True


def rule_extract_join_keys(op, ctx):
    """Computed equi-join keys — ``eq(f(left), g(right))`` conjuncts where
    each side's free variables come wholly from one join input — are
    assigned to fresh variables below the inputs and the conjunct is
    rewritten to ``eq($$l, $$r)``, the only form jobgen's equi-split
    recognizes.  Without this, ``ON m.authorId = u.id`` compiles to a
    broadcast nested-loop join that evaluates the predicate |L|x|R|
    times; with it, the join becomes a partitioned hash join (the 28x
    join_groupby speedup in docs/PERFORMANCE.md is mostly this rule)."""
    if not isinstance(op, Join) or ctx.next_var is None:
        return op, False
    left_schema = set(op.child_schema(0))
    right_schema = set(op.child_schema(1))
    new_parts = []
    left_assigns: list = []
    right_assigns: list = []
    changed = False
    for part in conjuncts(op.condition):
        rewritten = None
        if (isinstance(part, LCall) and part.name == "eq"
                and len(part.args) == 2):
            a, b = part.args
            fa, fb = free_vars(a), free_vars(b)
            if (fa and fb and fa <= right_schema and fb <= left_schema
                    and not (fa <= left_schema and fb <= right_schema)):
                a, b, fa, fb = b, a, fb, fa
            if (fa and fb and fa <= left_schema and fb <= right_schema
                    and not (isinstance(a, LVar) and isinstance(b, LVar))):
                if isinstance(a, LVar):
                    lv = a.var
                else:
                    lv = ctx.next_var()
                    left_assigns.append((lv, a))
                if isinstance(b, LVar):
                    rv = b.var
                else:
                    rv = ctx.next_var()
                    right_assigns.append((rv, b))
                rewritten = LCall("eq", [LVar(lv), LVar(rv)])
        if rewritten is None:
            new_parts.append(part)
        else:
            changed = True
            new_parts.append(rewritten)
    if not changed:
        return op, False
    for var, expr in left_assigns:
        op.inputs[0] = Assign(var=var, expr=expr, inputs=[op.inputs[0]])
    for var, expr in right_assigns:
        op.inputs[1] = Assign(var=var, expr=expr, inputs=[op.inputs[1]])
    op.condition = make_conjunction(new_parts)
    return op, True


def rule_push_limit_into_order(op, ctx):
    if not isinstance(op, Limit) or op.count is None:
        return op, False
    child = op.inputs[0]
    if isinstance(child, Order) and child.topk is None:
        child.topk = op.count + op.offset
        return op, True
    return op, False


# --- access-method rules -------------------------------------------------------
#
# One matcher behind every access path.  A rule takes the maximal chain of
# Selects at ``op``; ``path CMP constant`` conjuncts (the path rooted at
# the record, the unnested element or the primary-key variable) fold into
# the tightest bound per path, and an ordered key (primary, B+ tree,
# array) seeks on its longest prefix of equalities ended by at most one
# range.  Preference: primary, B+ tree (widest prefix, catalog order on a
# tie), R-tree, keyword/ngram, array.

def _select_chain(op: LogicalOp) -> tuple[list, LogicalOp]:
    """The maximal chain of Selects from ``op`` down, and the node below."""
    selects = []
    while isinstance(op, Select):
        selects.append(op)
        op = op.inputs[0]
    return selects, op


def _field_env(op: LogicalOp) -> tuple[LogicalOp, dict]:
    """Descend through Assigns, building var -> defining-expr; returns the
    operator below the assign chain and the environment."""
    env: dict = {}
    while isinstance(op, Assign):
        env[op.var] = op.expr
        op = op.inputs[0]
    return op, env


def _resolve(expr, env, depth=0):
    """Chase variables through the assign environment (bounded)."""
    while isinstance(expr, LVar) and expr.var in env and depth < 16:
        expr = env[expr.var]
        depth += 1
    return expr


def _field_path_from(expr, env, base_var: int):
    """If expr is a chain of field accesses rooted at ``base_var``
    (possibly via assigns), return the dotted path — ``""`` for the
    variable itself, None if it is anything else."""
    expr = _resolve(expr, env)
    parts: list = []
    while (isinstance(expr, LCall) and expr.name == "field_access"
            and len(expr.args) == 2
            and isinstance(expr.args[1], LConst)):
        parts.append(expr.args[1].value)
        expr = _resolve(expr.args[0], env)
    if isinstance(expr, LVar) and expr.var == base_var:
        return ".".join(reversed(parts))
    return None


_CMP_SWAP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}


def _sargable_path(cond, env, base_var):
    """Match path CMP const (either side); returns (path, cmp, const).
    The path may be ``""`` (the variable itself): test ``is not None``."""
    cond = _resolve(cond, env)
    if not isinstance(cond, LCall) or cond.name not in _CMP_SWAP:
        return None
    a, b = cond.args
    pa = _field_path_from(a, env, base_var)
    rb = _resolve(b, env)
    if pa is not None and isinstance(rb, LConst):
        return pa, cond.name, rb.value
    pb = _field_path_from(b, env, base_var)
    ra = _resolve(a, env)
    if pb is not None and isinstance(ra, LConst):
        return pb, _CMP_SWAP[cond.name], ra.value
    return None


@dataclass
class _Bound:
    """The tightest range the sargable selects put on one path."""

    lo: object = None
    hi: object = None
    lo_inc: bool = True
    hi_inc: bool = True
    invalid: bool = False
    selects: list = field(default_factory=list)


def _collect_bounds(selects, env, base_var) -> dict:
    """path -> :class:`_Bound` over the sargable selects of the chain.

    Predicates on one path intersect (``age >= 27 AND age = 55`` is the
    point [55, 55]).  Bounds of incomparable types can't intersect into
    one range (the conjunction is null on every record), so they mark the
    path invalid: no index seeks on it and the selects stay residual."""
    bounds: dict = {}
    for sel in selects:
        hit = _sargable_path(sel.condition, env, base_var)
        if hit is None:
            continue
        path, cmp_name, const = hit
        b = bounds.setdefault(path, _Bound())
        if any(v is not None and not comparable(const, v)
               for v in (b.lo, b.hi)):
            b.invalid = True
        if b.invalid:
            continue
        if cmp_name in ("eq", "ge", "gt"):
            inclusive = cmp_name != "gt"
            if (b.lo is None or compare(const, b.lo) > 0
                    or (compare(const, b.lo) == 0 and not inclusive)):
                b.lo, b.lo_inc = const, inclusive
        if cmp_name in ("eq", "le", "lt"):
            inclusive = cmp_name != "lt"
            if (b.hi is None or compare(const, b.hi) < 0
                    or (compare(const, b.hi) == 0 and not inclusive)):
                b.hi, b.hi_inc = const, inclusive
        b.selects.append(sel)
    return bounds


def _prefix(bounds: dict, fields) -> tuple | None:
    """How far an ordered key over ``fields`` seeks: equalities, ended by
    at most one range.  Returns (fields used, the search's lo/hi and
    inclusivity), or None when the leading field has no valid bound."""
    lo, hi = [], []
    lo_inc = hi_inc = True
    used = []
    for f in fields:
        b = bounds.get(f)
        if b is None or b.invalid or (b.lo is None and b.hi is None):
            break
        used.append(f)
        if (b.lo is not None and b.hi is not None
                and compare(b.lo, b.hi) == 0 and b.lo_inc and b.hi_inc):
            lo.append(b.lo)
            hi.append(b.hi)
            continue
        if b.lo is not None:
            lo.append(b.lo)
            lo_inc = b.lo_inc
        if b.hi is not None:
            hi.append(b.hi)
            hi_inc = b.hi_inc
        break
    if not used:
        return None
    return used, {"lo": [LConst(v) for v in lo] or None,
                  "hi": [LConst(v) for v in hi] or None,
                  "lo_inclusive": lo_inc, "hi_inclusive": hi_inc}


def _widest(bounds: dict, specs) -> tuple | None:
    """(spec, search arguments, consumed selects) of the spec whose key
    the bounds seek on widest, the first in catalog order on a tie."""
    best, width = None, 0
    for spec in specs:
        found = _prefix(bounds, spec.fields or ("",))
        if found is not None and len(found[0]) > width:
            used, args = found
            width = len(used)
            best = (spec, args, [s for f in used for s in bounds[f].selects])
    return best


def _spatial(selects, env, scan, specs) -> tuple | None:
    """(R-tree spec, search arguments, no consumed select) for the first
    ``spatial_intersect(path, const window)`` an R-tree covers: the
    predicate stays residual, as exact geometry may be finer than the
    index's window test."""
    for sel in selects:
        cond = _resolve(sel.condition, env)
        if not (isinstance(cond, LCall)
                and cond.name == "spatial_intersect"):
            continue
        for a, b in (cond.args, cond.args[::-1]):
            path = _field_path_from(a, env, scan.record_var)
            window = _resolve(b, env)
            if path is None or not isinstance(window, LConst):
                continue
            for spec in specs:
                if spec.kind == "rtree" and spec.fields == (path,):
                    return spec, {"window": window}, []
    return None


def _text(selects, env, scan, specs) -> tuple | None:
    """(keyword/ngram spec, search arguments, selects consumed) for the
    first ``ftcontains(path, const text)`` an inverted index covers.  A
    keyword index answers the predicate, so its select is consumed.  An
    n-gram index returns a superset (records holding every n-gram of each
    query word), so the select stays as a residual; a query with no
    n-gram (every word shorter than n) leaves the scan."""
    from repro.storage.lsm import ngram_query_tokens

    for sel in selects:
        cond = _resolve(sel.condition, env)
        if not (isinstance(cond, LCall) and cond.name == "ftcontains"):
            continue
        path = _field_path_from(cond.args[0], env, scan.record_var)
        text = _resolve(cond.args[1], env)
        if path is None or not isinstance(text, LConst):
            continue
        for spec in specs:
            if spec.fields != (path,):
                continue
            if spec.kind == "keyword":
                return spec, {"text": text}, [sel]
            # nested n-gram paths stay scans (ROADMAP 7)
            if (spec.kind == "ngram" and "." not in path
                    and isinstance(text.value, str)
                    and ngram_query_tokens(text.value, spec.gram_length)):
                return spec, {"text": text}, []
    return None


def _scan_chain(op, ctx) -> tuple | None:
    """(selects, the node below them, assign env, scan) when index access
    is on and ``op`` heads a select chain over (assigns over) a scan."""
    if not ctx.enable_index_access or not isinstance(op, Select):
        return None
    selects, cursor = _select_chain(op)
    below, env = _field_env(cursor)
    if not isinstance(below, DataSourceScan):
        return None
    return selects, cursor, env, below


def _secondary_search(scan, spec, args) -> SecondaryIndexSearch:
    return SecondaryIndexSearch(
        dataset=scan.dataset, index_name=spec.name, index_kind=spec.kind,
        pk_vars=list(scan.pk_vars), record_var=scan.record_var, **args)


def rule_introduce_primary_index(op, ctx):
    """Selects on the primary key (its variable or its record field) over
    a scan -> bounded primary search."""
    chain = _scan_chain(op, ctx)
    if chain is None:
        return op, False
    selects, cursor, env, scan = chain
    if len(scan.pk_vars) != 1:
        return op, False
    pk_field = ctx.metadata.pk_fields(scan.dataset)[0]
    env = {**env, scan.pk_vars[0]: LCall(  # the pk variable is the field
        "field_access", [LVar(scan.record_var), LConst(pk_field)])}
    bounds = _collect_bounds(selects, env, scan.record_var)
    found = _prefix(bounds, (pk_field,))
    if found is None:
        return op, False
    search = PrimaryIndexSearch(dataset=scan.dataset,
                                pk_vars=list(scan.pk_vars),
                                record_var=scan.record_var, **found[1])
    return _rebuild_chain(selects, bounds[pk_field].selects, cursor, scan,
                          search), True


def rule_introduce_secondary_index(op, ctx):
    """Select chain over (assigns over) a scan with a matching secondary
    index -> SecondaryIndexSearch (+ residual selects): the widest B+ tree
    prefix, consuming its predicates; else an R-tree window; else a
    keyword/ngram ``ftcontains``."""
    chain = _scan_chain(op, ctx)
    if chain is None:
        return op, False
    selects, cursor, env, scan = chain
    specs = ctx.metadata.secondary_indexes(scan.dataset)
    if not specs:
        return op, False
    bounds = _collect_bounds(selects, env, scan.record_var)
    found = (_widest(bounds, [s for s in specs if s.kind == "btree"])
             or _spatial(selects, env, scan, specs)
             or _text(selects, env, scan, specs))
    if found is None:
        return op, False
    spec, args, consumed = found
    return _rebuild_chain(selects, consumed, cursor, scan,
                          _secondary_search(scan, spec, args)), True


def rule_introduce_array_index(op, ctx):
    """Selects over a non-outer UNNEST over (assigns over) a scan, with
    an array index on the unnested path -> swap the scan for an
    array-index search and keep the *entire* Unnest+Select chain as
    residual.

    Consuming nothing keeps the answer the scan plan's: the residual
    Unnest re-derives per-element multiplicity (a record matching via two
    elements emits two tuples) and the residual selects re-check every
    predicate, null/MISSING and cross-type cases included, so the index
    need only return a *superset* of the qualifying records.  A bound on
    a prefix of the element key is enough: maintenance
    (:func:`repro.storage.dataset_storage.array_element_keys`) indexes
    every element whose first key field is known, storing trailing
    MISSING/null parts verbatim, and an element whose first key field is
    MISSING fails the prefix-leading predicate under the scan plan too."""
    if not ctx.enable_index_access or not isinstance(op, Select):
        return op, False
    selects, cursor = _select_chain(op)
    unnest, env_above = _field_env(cursor)
    if not isinstance(unnest, Unnest) or unnest.outer:
        return op, False
    scan, env_below = _field_env(unnest.inputs[0])
    if not isinstance(scan, DataSourceScan):
        return op, False
    array_path = _field_path_from(unnest.collection, env_below,
                                  scan.record_var)
    specs = [s for s in ctx.metadata.secondary_indexes(scan.dataset)
             if s.kind == "array" and s.array_path == array_path]
    if not array_path or not specs:
        return op, False
    bounds = _collect_bounds(selects, {**env_below, **env_above},
                             unnest.var)
    best = _widest(bounds, specs)
    if best is None:
        return op, False
    spec, args, _ = best
    return _rebuild_chain(selects, [], cursor, scan,
                          _secondary_search(scan, spec, args)), True


def _rebuild_chain(selects, consumed, below, scan, search):
    """Swap the scan for the index search and drop the consumed selects.
    ``below`` is the node under the select chain: the scan, or assigns
    (and, for the array rule, an Unnest and more assigns) over it."""
    if below is scan:
        below = search
    else:
        node = below
        while node.inputs[0] is not scan:
            node = node.inputs[0]
        node.inputs[0] = search
    for sel in reversed(selects):
        if not any(sel is c for c in consumed):
            sel.inputs = [below]
            below = sel
    return below


def rule_inline_constant_assigns(op, ctx):
    """Substitute variables assigned a constant into the operators above
    and let dead-assign removal drop the assign.  This is what makes the
    Fig. 3(c) WITH clause (endTime := current_datetime(), startTime :=
    endTime - P30D) disappear into the comparison predicates."""
    from repro.algebricks.expressions import substitute

    consts: dict[int, LConst] = {}
    for node in walk(op):
        if isinstance(node, Assign) and isinstance(node.expr, LConst):
            consts[node.var] = node.expr
    if not consts:
        return op, False
    changed = [False]

    def sub_expr(expr):
        new = substitute(expr, consts)
        if repr(new) != repr(expr):
            changed[0] = True
        return new

    for node in walk(op):
        if isinstance(node, Select):
            node.condition = sub_expr(node.condition)
        elif isinstance(node, Assign) and not isinstance(node.expr, LConst):
            node.expr = sub_expr(node.expr)
        elif isinstance(node, Join):
            node.condition = sub_expr(node.condition)
        elif isinstance(node, Order):
            # sort keys must stay pre-assigned variable references —
            # jobgen refuses an LConst key (sort-key-variable invariant)
            pass
        elif isinstance(node, GroupBy):
            # group keys likewise (group-key-variable invariant); the
            # constant assign stays live as their producer
            for agg in node.aggregates:
                agg.argument = sub_expr(agg.argument)
        elif hasattr(node, "expr") and node.expr is not None \
                and not isinstance(node, Assign):
            node.expr = sub_expr(node.expr)
        elif hasattr(node, "record_expr") and node.record_expr is not None:
            node.record_expr = sub_expr(node.record_expr)
        elif hasattr(node, "collection"):
            node.collection = sub_expr(node.collection)
    return op, changed[0]


def rule_remove_dead_assigns(op, ctx):
    """Drop Assigns whose variable no operator above uses (one pass from
    the root; invoked on the root only)."""
    needed: set[int] = set()
    changed = [False]

    def visit(node: LogicalOp, needed_above: set[int]) -> LogicalOp:
        while isinstance(node, Assign) and node.var not in needed_above \
                and not _assign_needed(node, needed_above):
            changed[0] = True
            node = node.inputs[0]
        here = set(needed_above) | node.used_vars()
        node.inputs = [visit(child, here) for child in node.inputs]
        return node

    def _assign_needed(node, needed_above):
        return node.var in needed_above

    new_root = visit(op, needed)
    return new_root, changed[0]


# --- cost-based rules -------------------------------------------------------------

def _flatten_join_chain(op):
    """Decompose a maximal inner-join tree into (relations, conjuncts,
    floating assigns).  Assign nodes found between joins (the key
    extractions of :func:`rule_extract_join_keys`) are collected for
    re-placement; any other operator terminates the chain and becomes a
    relation leaf.  Returns None if ``op`` heads fewer than three
    relations or a non-inner join participates."""
    relations: list = []
    conjs: list = []
    assigns: list = []

    def visit(node):
        if isinstance(node, Join) and node.kind == "inner":
            for part in conjuncts(node.condition):
                if not (isinstance(part, LConst) and part.value is True):
                    conjs.append(part)
            visit(node.inputs[0])
            visit(node.inputs[1])
            return
        if isinstance(node, Assign):
            inner = node
            chain = []
            while isinstance(inner, Assign):
                chain.append(inner)
                inner = inner.inputs[0]
            if isinstance(inner, Join) and inner.kind == "inner":
                assigns.extend(chain)
                visit(inner)
                return
        relations.append(node)

    visit(op)
    if len(relations) < 3:
        return None
    return relations, conjs, assigns


def _resolved_needs(expr, assign_env) -> set:
    """Free variables of ``expr`` with floating-assign variables chased
    down to relation variables (to fixpoint)."""
    needs = set(free_vars(expr))
    changed = True
    while changed:
        changed = False
        for var in list(needs):
            if var in assign_env:
                needs.discard(var)
                needs |= set(free_vars(assign_env[var]))
                changed = True
    return needs


def rule_reorder_joins(op, ctx):
    """Cost-based join reordering for chains of three or more inner
    joins.

    The chain is flattened into relations + condition conjuncts +
    floating key-extraction assigns, relations are re-ordered greedily
    by estimated intermediate size (smallest connected pair first, then
    the relation minimizing the next intermediate, connected relations
    preferred over cross products), and the chain is rebuilt left-deep
    with each assign re-placed at the lowest point its inputs are in
    scope and each conjunct at the lowest join that covers its
    variables.  Fires only when statistics say the new order is strictly
    cheaper (sum of estimated intermediates) than the written order —
    with no statistics, estimates tie and the plan is left alone.
    Inner-join reordering preserves the result *multiset*; row order may
    change, as with any partitioned execution."""
    if not ctx.enable_cost_based or not isinstance(op, Join) \
            or op.kind != "inner":
        return op, False
    flat = _flatten_join_chain(op)
    if flat is None:
        return op, False
    relations, conjs, assigns = flat
    assign_env = {a.var: a.expr for a in assigns}

    from repro.algebricks.cost import CardinalityEstimator

    estimator = CardinalityEstimator(ctx.metadata)
    rel_info = []                       # (est, origins, vars)
    origins_all: dict = {}
    for rel in relations:
        est, origins = estimator.subtree(rel)
        # floor at one row: a zero estimate would zero out every order's
        # cost and make the cross-product penalty (a multiplier) moot
        rel_info.append([max(est, 1.0), origins, set(rel.schema())])
        origins_all.update(origins)
    conj_needs = [_resolved_needs(c, assign_env) for c in conjs]

    def order_cost(order):
        """(total intermediate size, per-step join estimates) of a
        left-deep execution in ``order``."""
        est = rel_info[order[0]][0]
        avail = set(rel_info[order[0]][2])
        used = [False] * len(conjs)
        total = 0.0
        for idx in order[1:]:
            r_est, _, r_vars = rel_info[idx]
            est = est * r_est
            avail |= r_vars
            for ci, conj in enumerate(conjs):
                if used[ci] or not conj_needs[ci] <= avail:
                    continue
                used[ci] = True
                if (isinstance(conj, LCall) and conj.name == "eq"
                        and len(conj.args) == 2
                        and isinstance(conj.args[0], LVar)
                        and isinstance(conj.args[1], LVar)):
                    est *= estimator.equi_pair_selectivity(
                        conj.args[0].var, conj.args[1].var,
                        origins_all, est / max(r_est, 1e-9), r_est)
                else:
                    est *= estimator._conjunct_selectivity(
                        conj, origins_all)
            total += est
        return total

    n = len(relations)

    def connected(avail_vars, idx):
        return any(needs & rel_info[idx][2] and needs <= (
            avail_vars | rel_info[idx][2]) for needs in conj_needs)

    # greedy: cheapest connected first pair, then grow by minimum
    # estimated intermediate (connected candidates preferred)
    best_pair, best_pair_cost = None, None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cost = order_cost([i, j])
            if not connected(rel_info[i][2], j):
                # cross products only as a last resort; additive term so
                # the penalty bites even when the estimate rounds to zero
                cost = (cost + 1.0) * 1e6
            if best_pair_cost is None or cost < best_pair_cost:
                best_pair, best_pair_cost = [i, j], cost
    order = best_pair
    while len(order) < n:
        avail = set().union(*(rel_info[i][2] for i in order))
        best_next, best_cost = None, None
        for idx in range(n):
            if idx in order:
                continue
            cost = order_cost(order + [idx])
            if not connected(avail, idx):
                cost = (cost + 1.0) * 1e6
            if best_cost is None or cost < best_cost:
                best_next, best_cost = idx, cost
        order.append(best_next)

    original = list(range(n))
    if order == original:
        return op, False
    if not order_cost(order) < order_cost(original) * 0.999:
        return op, False             # no strict win: keep the written order

    # rebuild left-deep, re-placing assigns and conjuncts bottom-most
    floating = list(assigns)
    conj_left = list(zip(conjs, conj_needs))

    def place_assigns(tree, avail):
        placed = True
        while placed:
            placed = False
            for a in list(floating):
                if set(free_vars(a.expr)) <= avail:
                    a.inputs = [tree]
                    tree = a
                    avail.add(a.var)
                    floating.remove(a)
                    placed = True
        return tree

    tree = relations[order[0]]
    avail = set(rel_info[order[0]][2])
    tree = place_assigns(tree, avail)
    for idx in order[1:]:
        right = relations[idx]
        r_avail = set(rel_info[idx][2])
        right = place_assigns(right, r_avail)
        avail |= r_avail
        parts = []
        for pair in list(conj_left):
            conj, needs = pair
            if set(free_vars(conj)) <= avail:
                parts.append(conj)
                conj_left.remove(pair)
        cond = make_conjunction(parts) if parts else LConst(True)
        tree = Join(cond, kind="inner", inputs=[tree, right])
        tree = place_assigns(tree, avail)
    if conj_left or floating:
        # something could not be re-placed (shouldn't happen for plans
        # the flattener accepted): keep the original plan
        return op, False
    get_registry().counter("optimizer.join_reorders").inc()
    return tree, True


# --- projection -------------------------------------------------------------------

_READS = (DataSourceScan, PrimaryIndexSearch, SecondaryIndexSearch)


# the operator kinds whose every use of a variable is in ``exprs()`` (a
# search's bounds are constants by now, so a read has none)
_EXPR_OPS = (*_READS, Assign, Select, Join, GroupBy, Aggregate, Order,
             Unnest, DistributeResult, Limit, EmptyTupleSource, ExternalScan)


def annotate_projections(root: LogicalOp) -> None:
    """Set ``fields`` on every read operator (scan, primary or secondary
    index search): the constant top-level field names its record
    variable is read through, so storage builds only those.  The empty
    set is a record nobody reads (``COUNT(*)``).  Any other use leaves
    ``fields`` None, a full decode: the bare variable in an expression
    (returned, compared, given to ``object_*``, accessed by a computed
    name), in a Project or Distinct, a UnionAll input, a plan that
    writes (InsertDelete), or an operator kind this pass does not know.

    A plain pass, not a rule: it runs once after every rewrite, so no
    later rewrite can add a use, and it fires nothing."""
    reads = [op for op in walk(root) if isinstance(op, _READS)]
    names: dict = {op.record_var: set() for op in reads}
    whole: set = set()
    for op in walk(root):
        if isinstance(op, (Project, Distinct)):
            whole.update(op.vars)
        elif isinstance(op, UnionAll):
            for child in op.inputs:
                whole.update(child.schema())
        elif isinstance(op, _EXPR_OPS):
            for expr in op.exprs():
                field_reads(expr, names, whole)
        else:                                    # InsertDelete, unknown
            whole.update(names)
    for op in reads:
        op.fields = (None if op.record_var in whole
                     else frozenset(names[op.record_var]))


# --- the driver -----------------------------------------------------------------

# Rule *sets*, applied in sequence like real Algebricks: normalization
# and pushdown must reach fixpoint before the access-method rules fire —
# otherwise an index rewrite can trigger while only part of a predicate
# has sunk to the scan, and the remaining conjuncts lose their chance to
# become index bounds.
_NORMALIZE_RULES = [
    rule_fold_constants,
    rule_break_select_conjunctions,
    rule_remove_true_selects,
    rule_push_select_down,
    rule_selects_into_join_condition,
    rule_extract_join_keys,
    rule_push_limit_into_order,
]

# Access-method rules match a *maximal* chain of selects over a scan, so
# they must be applied top-down (a bottom-up pass would fire on the
# innermost select first and strand the outer conjuncts as residuals).
_ACCESS_RULES = [
    rule_introduce_primary_index,
    rule_introduce_secondary_index,
    rule_introduce_array_index,
]


def _apply_rule(rule, op: LogicalOp, ctx) -> tuple[LogicalOp, bool]:
    """Invoke one rule; report the attempt to the recorder if tracing.

    When plan verification is on (repro.analysis), every *firing* rule is
    immediately followed by a structural check of the subtree it
    rewrote — producers always sit below their users, so verifying the
    rewritten subtree is sound — and a violation names the rule."""
    recorder = ctx.recorder
    if recorder is None:
        op, changed = rule(op, ctx)
        if changed:
            _maybe_verify(op, rule)
        return op, changed
    import time

    target = op.label()
    started = time.perf_counter()
    op, changed = rule(op, ctx)
    recorder.observe(
        recorder.rule_name(rule),
        (time.perf_counter() - started) * 1e6,
        fired=changed, target=target,
    )
    if changed:
        _maybe_verify(op, rule)
    return op, changed


def _maybe_verify(op: LogicalOp, rule=None) -> None:
    """Verify ``op``'s subtree if the global switch is on; blames
    ``rule`` (a rule function) in the failure message."""
    from repro.analysis.plan_verifier import verify_plan
    from repro.analysis.verify import plan_verification_enabled

    if not plan_verification_enabled():
        return
    name = None
    if rule is not None:
        name = rule.__name__
        if name.startswith("rule_"):
            name = name[len("rule_"):]
    verify_plan(op, rule=name)


def _fresh_var_allocator(root: LogicalOp):
    """A callable minting plan-variable ids strictly above every id the
    plan already uses (schemas and referenced vars both count) — how
    ``OptimizerContext.next_var`` gets populated."""
    high = 0
    for node in walk(root):
        for v in node.schema():
            if isinstance(v, int) and v > high:
                high = v
        for v in node.used_vars():
            if isinstance(v, int) and v > high:
                high = v
    counter = itertools.count(high + 1)
    return lambda: next(counter)


def optimize(root: LogicalOp, metadata: MetadataView, *,
             enable_index_access: bool = True,
             enable_cost_based: bool = True,
             max_passes: int = 12,
             recorder: object = None) -> LogicalOp:
    """Apply the rule sets to fixpoint; returns the rewritten plan.

    ``enable_cost_based=False`` turns off the statistics-driven rewrites
    (join reordering here; build-side and broadcast selection in jobgen
    read the estimates this pass leaves behind) — the syntactic plan the
    equivalence suites compare against.

    Pass an :class:`repro.observability.RewriteRecorder` as ``recorder``
    to collect which rules fired, on what operator, and how long each
    rule spent — the substance of the optimize phase in a
    :class:`~repro.observability.QueryTrace`.
    """
    ctx = OptimizerContext(metadata=metadata,
                           enable_index_access=enable_index_access,
                           enable_cost_based=enable_cost_based,
                           recorder=recorder)
    ctx.next_var = _fresh_var_allocator(root)
    _maybe_verify(root)        # the translator's plan must be sound too
    for _ in range(max_passes):
        for _ in range(max_passes):
            root, changed = _apply_bottom_up(root, ctx, _NORMALIZE_RULES)
            root, inlined = _apply_rule(rule_inline_constant_assigns,
                                        root, ctx)
            root, dead_changed = _apply_rule(rule_remove_dead_assigns,
                                             root, ctx)
            if not (changed or inlined or dead_changed):
                break
        if ctx.enable_cost_based:
            # after normalization (selects merged into join conditions,
            # computed keys extracted) and before access-method
            # selection, so index rewrites see the final join shape
            root, _ = _apply_bottom_up(root, ctx, [rule_reorder_joins])
        root, access_changed = _apply_access_top_down(root, ctx)
        if recorder is not None:
            recorder.end_pass(plan_signature(root))
        if not access_changed:
            break
    _maybe_verify(root)
    annotate_projections(root)
    if enable_cost_based:
        from repro.algebricks.cost import CardinalityEstimator

        CardinalityEstimator(metadata).annotate(root)
        get_registry().counter("optimizer.estimated_plans").inc()
    return root


def _apply_access_top_down(op: LogicalOp, ctx) -> tuple[LogicalOp, bool]:
    changed = False
    for rule in _ACCESS_RULES:
        op, c = _apply_rule(rule, op, ctx)
        changed |= c
    if changed:
        # the subtree was restructured; don't descend into stale nodes
        return op, True
    new_inputs = []
    for child in op.inputs:
        new_child, c = _apply_access_top_down(child, ctx)
        new_inputs.append(new_child)
        changed |= c
    op.inputs = new_inputs
    return op, changed


def _apply_bottom_up(op: LogicalOp, ctx, rules) -> tuple[LogicalOp, bool]:
    changed = False
    new_inputs = []
    for child in op.inputs:
        new_child, c = _apply_bottom_up(child, ctx, rules)
        new_inputs.append(new_child)
        changed |= c
    op.inputs = new_inputs
    for rule in rules:
        op, c = _apply_rule(rule, op, ctx)
        changed |= c
    return op, changed


def explain(root: LogicalOp) -> str:
    """Readable plan tree (the EXPLAIN output)."""
    return root.pretty()


def plan_signature(root: LogicalOp) -> list[str]:
    """Operator labels top-down (tests compare plans with this)."""
    return [type(op).__name__ for op in walk(root)]
