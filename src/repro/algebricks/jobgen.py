"""The job generator: optimized logical plans -> Hyracks jobs.

This is the physical layer of Fig. 5, where the "data-partition-aware"
part of feature 3 lives.  Every compiled stream carries its *partitioning
property* (singleton, hash-partitioned on variables, or random) and its
*local order property*; connectors are inserted only where an operator's
requirement isn't already satisfied:

* joins hash-partition both sides on the join keys — unless a side is
  already hash-partitioned on them (e.g. a primary-key join on top of a
  primary-key-partitioned scan needs no exchange at all);
* group-bys hash-partition on the grouping keys — unless the input's
  property is a subset of them (grouping by pk + anything after a scan is
  exchange-free);
* ORDER BY sorts locally and merges globally through a MergeConnector;
* DML routes records to their owning partition by primary-key hash.

The invariant throughout: a stream's tuple layout equals its logical
operator's schema (variable i lives in column i), which keeps variable
-> column mapping trivial and verifiable.

Layer contract: input is an *optimized* logical plan (the output of
:func:`repro.algebricks.rules.optimize`) plus the catalog and the
cluster width; output is a validated
:class:`~repro.hyracks.job.JobSpecification` ready for
:meth:`~repro.hyracks.cluster.ClusterController.run_job`.  This module
never executes anything and holds no state between calls.  The generated
DAG is what ``AsterixInstance.explain`` serializes as the ``job`` half of
its output (via :func:`repro.observability.job_to_dict`); see
docs/ARCHITECTURE.md for a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebricks import logical as L
from repro.algebricks.expressions import (
    LCall,
    LConst,
    LVar,
    conjuncts,
    to_runtime,
)
from repro.analysis.plan_verifier import verify_job, verify_stream
from repro.analysis.verify import plan_verification_enabled
from repro.common.errors import CompilationError
from repro.hyracks.job import OperatorDescriptor
from repro.hyracks import (
    BroadcastConnector,
    HashPartitionConnector,
    JobSpecification,
    MergeConnector,
    OneToOneConnector,
)
from repro.hyracks.expressions import ColumnRef
from repro.observability.metrics import get_registry
from repro.hyracks.operators import (
    AggregateCall,
    AggregateOp,
    AssignOp,
    DatasetScanOp,
    DeleteOp,
    DistinctOp,
    ExternalScanOp,
    ExternalSortOp,
    HashGroupByOp,
    HybridHashJoinOp,
    EmptyTupleSourceOp,
    InsertOp,
    ArrayBTreeSearchOp,
    InvertedSearchOp,
    LimitOp,
    LoadOp,
    NestedLoopJoinOp,
    PreclusteredGroupByOp,
    PrimaryKeySearchOp,
    PrimaryLookupOp,
    ProjectOp,
    ResultWriterOp,
    SecondaryBTreeSearchOp,
    SecondaryRTreeSearchOp,
    SelectOp,
    TopKSortOp,
    UnnestOp,
    UpsertOp,
)

SINGLETON = ("singleton",)
RANDOM = ("random",)


class _SingletonMaterializeOp(OperatorDescriptor):
    """A width-1 materialize: the gather point for LIMIT / results."""

    partition_count = 1
    name = "gather"

    def run(self, ctx, partition, inputs):
        ctx.cost.tuples_out += len(inputs[0])
        return list(inputs[0])


@dataclass
class Stream:
    """A compiled sub-plan: its sink operator + physical properties."""

    op_id: int
    schema: list                     # ordered plan variables == columns
    width: int                       # 1 or cluster width
    partitioning: tuple = RANDOM     # SINGLETON | RANDOM | ("hash", vars)
    order: list = field(default_factory=list)   # [(var, desc)] local order

    def col(self, var: int) -> int:
        try:
            return self.schema.index(var)
        except ValueError:
            raise CompilationError(
                f"variable $${var} not in stream schema {self.schema}"
            ) from None

    @property
    def var_to_col(self) -> dict:
        return {v: i for i, v in enumerate(self.schema)}


class JobGenerator:
    """Compiles one logical plan into one Hyracks JobSpecification."""

    def __init__(self, metadata, num_partitions: int):
        self.metadata = metadata
        self.width = num_partitions
        self.job = JobSpecification()
        self.result_op: ResultWriterOp | None = None

    # -- public --------------------------------------------------------------

    def generate(self, root: L.LogicalOp):
        """Returns (job, result_writer)."""
        if isinstance(root, L.DistributeResult):
            self._compile_result(root)
        elif isinstance(root, L.InsertDelete):
            self._compile_dml(root)
        else:
            raise CompilationError(
                f"plan root must be DistributeResult or InsertDelete, "
                f"got {type(root).__name__}"
            )
        if plan_verification_enabled():
            verify_job(self.job)
        return self.job, self.result_op

    # -- helpers ---------------------------------------------------------------

    def _add(self, op) -> int:
        return self.job.add_operator(op)

    def _connect(self, connector, producer: int, consumer: int,
                 port: int = 0):
        self.job.connect(connector, producer, consumer, port)

    def _chain(self, stream: Stream, op, *, schema=None, order=None,
               connector=None) -> Stream:
        op_id = self._add(op)
        self._connect(connector or OneToOneConnector(), stream.op_id, op_id)
        width = 1 if op.partition_count == 1 else stream.width
        if connector is not None and isinstance(
                connector, HashPartitionConnector):
            width = self.width
        return Stream(
            op_id,
            stream.schema if schema is None else schema,
            width,
            stream.partitioning if connector is None else RANDOM,
            stream.order if order is None else order,
        )

    # -- compilation ----------------------------------------------------------

    def compile(self, op: L.LogicalOp) -> Stream:
        method = getattr(self, "_compile_" + type(op).__name__, None)
        if method is None:
            raise CompilationError(
                f"no physical translation for {type(op).__name__}"
            )
        stream = method(op)
        est = getattr(op, "est_card", None)
        if est is not None:
            # estimated-vs-actual: the physical sink operator of this
            # logical op carries the estimate into the job profile
            self.job.operators[stream.op_id].estimated_cardinality = est
        if plan_verification_enabled():
            verify_stream(op, stream)
        return stream

    def _compile_EmptyTupleSource(self, op) -> Stream:
        op_id = self._add(EmptyTupleSourceOp())
        return Stream(op_id, [], 1, SINGLETON)

    def _compile_DataSourceScan(self, op) -> Stream:
        op_id = self._add(DatasetScanOp(op.dataset, op.fields))
        return Stream(op_id, op.schema(), self.width,
                      ("hash", tuple(op.pk_vars)),
                      order=[(v, False) for v in op.pk_vars])

    def _compile_ExternalScan(self, op) -> Stream:
        op_id = self._add(ExternalScanOp(op.adapter))
        return Stream(op_id, op.schema(), self.width, RANDOM)

    def _compile_PrimaryIndexSearch(self, op) -> Stream:
        lower = lambda es: (None if es is None else        # noqa: E731
                            [to_runtime(e, {}) for e in es])
        op_id = self._add(PrimaryKeySearchOp(
            op.dataset, lower(op.lo), lower(op.hi),
            op.lo_inclusive, op.hi_inclusive, op.fields,
        ))
        return Stream(op_id, op.schema(), self.width,
                      ("hash", tuple(op.pk_vars)),
                      order=[(v, False) for v in op.pk_vars])

    def _compile_SecondaryIndexSearch(self, op) -> Stream:
        lower = lambda es: (None if es is None else        # noqa: E731
                            [to_runtime(e, {}) for e in es])
        if op.index_kind == "btree":
            search = SecondaryBTreeSearchOp(
                op.dataset, op.index_name, lower(op.lo), lower(op.hi),
                op.lo_inclusive, op.hi_inclusive,
            )
        elif op.index_kind == "array":
            search = ArrayBTreeSearchOp(
                op.dataset, op.index_name, lower(op.lo), lower(op.hi),
                op.lo_inclusive, op.hi_inclusive,
            )
        elif op.index_kind == "rtree":
            search = SecondaryRTreeSearchOp(
                op.dataset, op.index_name, to_runtime(op.window, {})
            )
        else:
            search = InvertedSearchOp(
                op.dataset, op.index_name, to_runtime(op.text, {})
            )
        search_id = self._add(search)
        # the [26] pipeline: PKs -> sorted fetch through the primary index
        lookup = PrimaryLookupOp(op.dataset, len(op.pk_vars),
                                 sort_keys=True, fields=op.fields)
        lookup_id = self._add(lookup)
        self._connect(OneToOneConnector(), search_id, lookup_id)
        return Stream(lookup_id, op.schema(), self.width,
                      ("hash", tuple(op.pk_vars)))

    def _compile_Assign(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        expr = to_runtime(op.expr, child.var_to_col)
        return self._chain(child, AssignOp([expr]), schema=op.schema())

    def _compile_Select(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        cond = to_runtime(op.condition, child.var_to_col)
        return self._chain(child, SelectOp(cond))

    def _compile_Project(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        cols = [child.col(v) for v in op.vars]
        out = self._chain(child, ProjectOp(cols), schema=op.schema())
        out.order = [pair for pair in child.order if pair[0] in op.vars]
        if out.partitioning and out.partitioning[0] == "hash" and \
                not set(out.partitioning[1]) <= set(op.vars):
            # the hash-key columns were projected away: the data is still
            # partitioned that way, but no downstream operator can prove
            # (or reuse) it, so stop claiming the property
            out.partitioning = RANDOM
        return out

    def _compile_Unnest(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        coll = to_runtime(op.collection, child.var_to_col)
        runtime = UnnestOp(coll, outer=op.outer,
                           positional=op.positional_var is not None)
        return self._chain(child, runtime, schema=op.schema())

    def _compile_UnionAll(self, op) -> Stream:
        left = self.compile(op.inputs[0])
        right = self.compile(op.inputs[1])
        from repro.hyracks.operators import UnionAllOp

        union_id = self._add(UnionAllOp())
        self._connect(OneToOneConnector(), left.op_id, union_id, 0)
        self._connect(OneToOneConnector(), right.op_id, union_id, 1)
        return Stream(union_id, op.schema(), max(left.width, right.width),
                      RANDOM)

    def _compile_Join(self, op) -> Stream:
        left = self.compile(op.inputs[0])
        right = self.compile(op.inputs[1])
        left_schema = op.child_schema(0)
        right_schema = op.child_schema(1)
        equi, residual = self._split_equi(op.condition, set(left_schema),
                                          set(right_schema))
        out_schema = op.schema()
        joined_var_to_col = {
            v: i for i, v in enumerate([*left_schema, *right_schema])
        }
        if equi:
            left_keys = [left.col(lv) for lv, _ in equi]
            right_keys = [right.col(rv) for _, rv in equi]
            residual_rt = (to_runtime(residual, joined_var_to_col)
                           if residual is not None else None)
            left_est = getattr(op.inputs[0], "est_card", None)
            right_est = getattr(op.inputs[1], "est_card", None)
            # build-side selection: build the hash table on the input
            # estimated smaller (output is byte-identical either way;
            # the win is spill avoidance when only the smaller side
            # fits the memory budget)
            build_side = 1
            if left_est is not None and right_est is not None \
                    and left_est < right_est:
                build_side = 0
                get_registry().counter("optimizer.build_side_swaps").inc()
            join = HybridHashJoinOp(
                left_keys, right_keys, kind=op.kind,
                residual=residual_rt, right_width=len(right_schema),
                build_side=build_side,
            )
            join_id = self._add(join)
            lconn = self._partition_connector(left, [lv for lv, _ in equi])
            rconn = self._partition_connector(right, [rv for _, rv in equi])
            if self._broadcast_wins(left, right, lconn, rconn,
                                    left_est, right_est):
                # broadcast the (small) right side instead of hash-
                # repartitioning both: every partition holds the full
                # right input, the left stays exactly where it is, and
                # the result keeps the left's partitioning — the same
                # shape as the nested-loop join below
                get_registry().counter("optimizer.broadcast_joins").inc()
                self._connect(OneToOneConnector(), left.op_id, join_id, 0)
                self._connect(BroadcastConnector(), right.op_id, join_id, 1)
                return Stream(join_id, out_schema, max(left.width, 1),
                              left.partitioning)
            self._connect(lconn, left.op_id, join_id, 0)
            self._connect(rconn, right.op_id, join_id, 1)
            return Stream(join_id, out_schema, self.width,
                          ("hash", tuple(lv for lv, _ in equi)))
        # no equi-condition: broadcast nested-loop join
        cond_rt = (to_runtime(op.condition, joined_var_to_col)
                   if not self._is_true(op.condition) else None)
        join = NestedLoopJoinOp(cond_rt, kind=op.kind,
                                right_width=len(right_schema))
        join_id = self._add(join)
        self._connect(OneToOneConnector(), left.op_id, join_id, 0)
        self._connect(BroadcastConnector(), right.op_id, join_id, 1)
        return Stream(join_id, out_schema, max(left.width, 1),
                      left.partitioning)

    @staticmethod
    def _is_true(expr) -> bool:
        return isinstance(expr, LConst) and expr.value is True

    def _split_equi(self, condition, left_vars, right_vars):
        """Partition a join condition into var=var equi pairs + residual."""
        equi = []
        residual = []
        for part in conjuncts(condition):
            if self._is_true(part):
                continue
            if (isinstance(part, LCall) and part.name == "eq"
                    and len(part.args) == 2):
                a, b = part.args
                if isinstance(a, LVar) and isinstance(b, LVar):
                    if a.var in left_vars and b.var in right_vars:
                        equi.append((a.var, b.var))
                        continue
                    if b.var in left_vars and a.var in right_vars:
                        equi.append((b.var, a.var))
                        continue
            residual.append(part)
        from repro.algebricks.expressions import make_conjunction

        return equi, (make_conjunction(residual) if residual else None)

    def _partition_connector(self, stream: Stream, key_vars: list):
        """Reuse existing partitioning when it matches (the heart of
        partition-awareness)."""
        if (stream.partitioning[0] == "hash"
                and tuple(stream.partitioning[1]) == tuple(key_vars)
                and stream.width == self.width):
            return OneToOneConnector()
        return HashPartitionConnector([stream.col(v) for v in key_vars])

    def _broadcast_wins(self, left, right, lconn, rconn,
                        left_est, right_est) -> bool:
        """Broadcast-vs-hash-repartition for an equi join: compare the
        estimated tuples each strategy moves over the network.

        Repartitioning moves ~(W-1)/W of every side that actually needs
        a :class:`HashPartitionConnector` (a side already partitioned on
        the join keys moves nothing); broadcasting replicates the right
        input to the other W-1 partitions and moves nothing on the left.
        Requires estimates from the cost pass — without statistics both
        are None and the classic repartitioning plan stands."""
        if left_est is None or right_est is None or self.width <= 1:
            return False
        w = self.width
        repart = 0.0
        if isinstance(lconn, HashPartitionConnector):
            repart += left_est * (w - 1) / w
        if isinstance(rconn, HashPartitionConnector):
            repart += right_est * (w - 1) / w
        broadcast = right_est * (w - 1)
        return broadcast < repart

    def _compile_GroupBy(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        key_vars = []
        for new_var, expr in op.keys:
            if not isinstance(expr, LVar):
                raise CompilationError(
                    "group keys must be pre-assigned variables"
                )
            key_vars.append(expr.var)
        key_cols = [child.col(v) for v in key_vars]
        aggs = [
            AggregateCall(a.function,
                          to_runtime(a.argument, child.var_to_col))
            for a in op.aggregates
        ]
        # partition-awareness: an input hash-partitioned on a subset of the
        # group keys already has co-located groups
        if (child.partitioning[0] == "hash"
                and set(child.partitioning[1]) <= set(key_vars)
                and child.width == self.width):
            connector = OneToOneConnector()
        else:
            connector = HashPartitionConnector(key_cols)
        # order-awareness: input sorted on the keys -> preclustered group-by
        order_vars = [v for v, desc in child.order]
        if order_vars[: len(key_vars)] == key_vars and isinstance(
                connector, OneToOneConnector):
            runtime = PreclusteredGroupByOp(key_cols, aggs)
        else:
            runtime = HashGroupByOp(key_cols, aggs)
        out = self._chain(child, runtime, schema=op.schema(),
                          connector=connector, order=[])
        out.partitioning = ("hash", tuple(v for v, _ in op.keys))
        out.width = self.width if child.width > 1 or isinstance(
            connector, HashPartitionConnector) else child.width
        return out

    def _compile_Aggregate(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        aggs = [
            AggregateCall(a.function,
                          to_runtime(a.argument, child.var_to_col))
            for a in op.aggregates
        ]
        out = self._chain(child, AggregateOp(aggs), schema=op.schema(),
                          order=[])
        out.width = 1
        out.partitioning = SINGLETON
        return out

    def _compile_Order(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        fields = []
        descending = []
        for expr, desc in op.pairs:
            if not isinstance(expr, LVar):
                raise CompilationError(
                    "sort keys must be pre-assigned variables"
                )
            fields.append(child.col(expr.var))
            descending.append(desc)
        if op.topk is not None:
            runtime = TopKSortOp(fields, op.topk, descending)
        else:
            runtime = ExternalSortOp(fields, descending)
        order = [(expr.var, desc) for expr, desc in op.pairs]
        return self._chain(child, runtime, order=order)

    def _compile_Distinct(self, op) -> Stream:
        child = self.compile(op.inputs[0])
        cols = [child.col(v) for v in op.vars]
        if (child.partitioning[0] == "hash"
                and set(child.partitioning[1]) <= set(op.vars)
                and child.width == self.width):
            connector = OneToOneConnector()
        else:
            connector = HashPartitionConnector(cols)
        out = self._chain(child, DistinctOp(cols), connector=connector,
                          order=[])
        out.partitioning = ("hash", tuple(op.vars))
        return out

    def _compile_Limit(self, op) -> Stream:
        child = self._gather(self.compile(op.inputs[0]))
        return self._chain(child, LimitOp(op.count, op.offset))

    def _gather(self, stream: Stream) -> Stream:
        """Bring a stream to one partition, preserving order if any."""
        if stream.width == 1:
            return stream
        if stream.order:
            connector = MergeConnector(
                [stream.col(v) for v, _ in stream.order],
                [d for _, d in stream.order],
            )
        else:
            connector = OneToOneConnector()
        op_id = self._add(_SingletonMaterializeOp())
        self._connect(connector, stream.op_id, op_id)
        return Stream(op_id, stream.schema, 1, SINGLETON, stream.order)

    def _compile_result(self, root: L.DistributeResult) -> None:
        child = self.compile(root.inputs[0])
        expr = to_runtime(root.expr, child.var_to_col)
        assigned = self._chain(child, AssignOp([expr]),
                               schema=[*child.schema, -1])
        gathered = self._gather(assigned)
        projected = self._chain(gathered, ProjectOp([len(child.schema)]),
                                schema=[-1])
        self.result_op = ResultWriterOp()
        self._chain(projected, self.result_op)

    def _compile_dml(self, root: L.InsertDelete) -> None:
        child = self.compile(root.inputs[0])
        pk_fields = self.metadata.pk_fields(root.dataset)
        if root.op in ("insert", "upsert", "load"):
            record_expr = to_runtime(root.record_expr, child.var_to_col)
            record_col = len(child.schema)
            stream = self._chain(
                child, AssignOp([record_expr]),
                schema=[*child.schema, -1],
            )
            schema = list(stream.schema)
            from repro.hyracks.expressions import Const as RConst
            from repro.hyracks.expressions import FunctionCall as RCall

            assigns = [
                RCall("field_access", [ColumnRef(record_col), RConst(f)])
                for f in pk_fields
            ]
            stream = self._chain(
                stream, AssignOp(assigns),
                schema=[*schema, *[-2 - i for i in range(len(pk_fields))]],
            )
            pk_cols = [record_col + 1 + i for i in range(len(pk_fields))]
            op_cls = {"insert": InsertOp, "upsert": UpsertOp,
                      "load": LoadOp}[root.op]
            dml = op_cls(root.dataset, ColumnRef(record_col))
            dml_id = self._add(dml)
            self._connect(HashPartitionConnector(pk_cols), stream.op_id,
                          dml_id)
            counts = Stream(dml_id, [-9], self.width)
        else:  # delete
            pk_exprs = [to_runtime(e, child.var_to_col)
                        for e in root.pk_exprs or []]
            dml = DeleteOp(root.dataset, [ColumnRef(len(child.schema) + i)
                                          for i in range(len(pk_exprs))])
            stream = self._chain(
                child, AssignOp(pk_exprs),
                schema=[*child.schema,
                        *[-2 - i for i in range(len(pk_exprs))]],
            )
            pk_cols = [len(child.schema) + i for i in range(len(pk_exprs))]
            dml_id = self._add(dml)
            self._connect(HashPartitionConnector(pk_cols), stream.op_id,
                          dml_id)
            counts = Stream(dml_id, [-9], self.width)
        total = self._chain(
            counts,
            AggregateOp([AggregateCall("sum", ColumnRef(0))]),
            schema=[-10],
        )
        self.result_op = ResultWriterOp()
        self._chain(total, self.result_op)


def compile_plan(root, metadata, num_partitions: int):
    """Convenience: logical plan -> (job, result_writer)."""
    return JobGenerator(metadata, num_partitions).generate(root)
