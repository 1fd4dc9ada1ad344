"""Index access operators (features 5/8 meeting feature 4).

A secondary-index query plan in AsterixDB is a pipeline: secondary index
search (producing primary keys) → sort PKs → primary index lookup — the
[26] trick.  These operators are those stages; the Algebricks access-method
rules emit them in place of scan+select.
"""

from __future__ import annotations

from repro.adm.comparators import comparable_tuples, tuple_key
from repro.adm.values import ARectangle
from repro.hyracks.expressions import RuntimeExpr, compile_expr
from repro.hyracks.job import OperatorDescriptor


class _RangeSearchOp(OperatorDescriptor):
    """A search bounded by ``lo``/``hi`` key expressions.  The bounds are
    compiled once per job (:meth:`prepare`) and evaluated once per
    partition against the empty tuple (bounds are constants after
    optimization); a None bound is open."""

    num_inputs = 0

    def __init__(self, dataset: str, lo: list | None, hi: list | None,
                 lo_inclusive: bool = True, hi_inclusive: bool = True):
        self.dataset = dataset
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        self._bounds = None    # compiled (lo, hi), set by prepare()

    def prepare(self, config):
        self._bounds = [None if exprs is None
                        else [compile_expr(e) for e in exprs]
                        for exprs in (self.lo, self.hi)]

    def _bound_values(self) -> list:
        """``[lo, hi]``, each a key tuple or None."""
        return [None if evals is None else tuple(e(()) for e in evals)
                for evals in self._bounds]


class PrimaryKeySearchOp(_RangeSearchOp):
    """Primary-index point/range search: emits (pk..., record) like a
    scan, but bounded; ``fields`` projects the record as a scan's does."""

    name = "primary-search"

    def __init__(self, dataset: str, lo: list | None, hi: list | None,
                 lo_inclusive: bool = True, hi_inclusive: bool = True,
                 fields: frozenset | None = None):
        super().__init__(dataset, lo, hi, lo_inclusive, hi_inclusive)
        self.fields = fields

    def run(self, ctx, partition, inputs):
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        lo, hi = self._bound_values()
        out = []
        for pk, record in storage.scan(
                lo, hi, lo_inclusive=self.lo_inclusive,
                hi_inclusive=self.hi_inclusive, fields=self.fields):
            # the consumed predicate is null on a key that is not
            # type-comparable with its bound; match scan+select semantics
            if lo is not None and not comparable_tuples(pk, lo):
                continue
            if hi is not None and not comparable_tuples(pk, hi):
                continue
            out.append((*pk, record))
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"primary-search({self.dataset})"


class SecondaryBTreeSearchOp(_RangeSearchOp):
    """Secondary B+ tree search: emits primary-key tuples."""

    name = "btree-search"

    def __init__(self, dataset: str, index_name: str,
                 lo: list | None, hi: list | None,
                 lo_inclusive: bool = True, hi_inclusive: bool = True):
        super().__init__(dataset, lo, hi, lo_inclusive, hi_inclusive)
        self.index_name = index_name

    def run(self, ctx, partition, inputs):
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        out = [
            pk for pk in storage.search_btree(
                self.index_name, *self._bound_values(),
                lo_inclusive=self.lo_inclusive,
                hi_inclusive=self.hi_inclusive)
        ]
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"btree-search({self.dataset}.{self.index_name})"


class ArrayBTreeSearchOp(SecondaryBTreeSearchOp):
    """Multi-valued (array) index search: emits *deduplicated* primary-key
    tuples.

    The index holds one (element key..., pk...) entry per array element,
    so a record whose array matches through several elements appears once
    per element in the range scan.  The dedup (first occurrence wins; the
    underlying scan is key-ordered, so output order is deterministic) is
    what keeps the downstream primary lookup + residual UNNEST plan
    byte-identical to the scan plan — the residual re-derives the exact
    per-element multiplicity."""

    name = "array-search"

    def run(self, ctx, partition, inputs):
        from repro.observability.metrics import get_registry

        registry = get_registry()
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        seen = set()
        out = []
        postings = 0
        for pk in storage.search_btree(
                self.index_name, *self._bound_values(),
                lo_inclusive=self.lo_inclusive,
                hi_inclusive=self.hi_inclusive):
            postings += 1
            if pk in seen:
                continue
            seen.add(pk)
            out.append(pk)
        registry.counter("index.array.lookups").inc()
        registry.counter("index.array.postings").inc(postings)
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(postings)
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"array-search({self.dataset}.{self.index_name})"


class SecondaryRTreeSearchOp(OperatorDescriptor):
    """Secondary R-tree window search: emits primary-key tuples."""

    num_inputs = 0
    name = "rtree-search"

    def __init__(self, dataset: str, index_name: str,
                 window: RuntimeExpr):
        self.dataset = dataset
        self.index_name = index_name
        self.window = window
        self._window = None    # compiled closure, set by prepare()

    def prepare(self, config):
        self._window = compile_expr(self.window)

    def run(self, ctx, partition, inputs):
        window = self._window(())
        if not isinstance(window, ARectangle):
            window = window.mbr()  # circles/polygons search by MBR
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        out = list(storage.search_rtree(self.index_name, window))
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"rtree-search({self.dataset}.{self.index_name})"


class InvertedSearchOp(OperatorDescriptor):
    """Keyword/ngram index search: emits PKs of records containing all
    tokens of the query text."""

    num_inputs = 0
    name = "inverted-search"

    def __init__(self, dataset: str, index_name: str, text: RuntimeExpr):
        self.dataset = dataset
        self.index_name = index_name
        self.text = text
        self._text = None    # compiled closure, set by prepare()

    def prepare(self, config):
        self._text = compile_expr(self.text)

    def run(self, ctx, partition, inputs):
        text = self._text(())
        storage = ctx.storage_partition(self.dataset, partition)
        before = ctx.node.io_snapshot()
        out = list(storage.search_keyword(self.index_name, text))
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"inverted-search({self.dataset}.{self.index_name})"


class PrimaryLookupOp(OperatorDescriptor):
    """Resolve PK tuples to (pk..., record) via the primary index.

    ``sort_keys=True`` applies the [26] optimization (sort references
    before fetching); E1 flips it to quantify the effect the paper
    describes.  ``fields`` projects each record as a scan's does."""

    name = "primary-lookup"

    def __init__(self, dataset: str, pk_width: int, sort_keys: bool = True,
                 fields: frozenset | None = None):
        self.dataset = dataset
        self.pk_width = pk_width
        self.sort_keys = sort_keys
        self.fields = fields

    def run(self, ctx, partition, inputs):
        storage = ctx.storage_partition(self.dataset, partition)
        pks = [tuple(t[: self.pk_width]) for t in inputs[0]]
        if self.sort_keys:
            pks.sort(key=tuple_key)
            ctx.charge_compare(len(pks) * max(1, len(pks).bit_length()))
        before = ctx.node.io_snapshot()
        out = []
        for pk in pks:
            record = storage.get(pk, fields=self.fields)
            if record is not None:
                out.append((*pk, record))
        ctx.node.charge_io_delta(ctx, before)
        ctx.charge_cpu(len(out))
        ctx.cost.tuples_out += len(out)
        return out

    def __repr__(self):
        return f"primary-lookup({self.dataset}, sort={self.sort_keys})"
