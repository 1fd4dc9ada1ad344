"""Hyracks job specifications.

"Hyracks jobs resulting from SQL++ query requests" (paper Fig. 1) are DAGs
of operator descriptors wired by connector descriptors.  An operator runs
in N partitions; a connector describes how a producer's partitioned output
is routed to a consumer's input partitions (one-to-one, hash partition,
broadcast, sorted merge).  The executor (:mod:`repro.hyracks.executor`)
splits the DAG into stages at pipeline breakers and streams frames through
fused chains of streaming operators; :mod:`repro.hyracks.cluster` drives
it in dependency order.

One protocol, two roles on :class:`OperatorDescriptor`:

* Sources and pipeline breakers (``streaming = False``) implement
  ``run(ctx, partition, inputs)``: one tuple list per input port in, an
  iterable of output tuples out.  A source's ``run`` is a generator, so
  the stage it heads never materializes its full output.
* Streaming operators (``streaming = True``) implement only
  ``start(ctx, partition)``, returning an :class:`OperatorTask` that
  consumes input one frame at a time.  Tasks defer their batch cost
  charges to ``finish``, so the simulated clock does not depend on how
  the input was framed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import CompilationError


class OperatorTask:
    """Push-based execution state of one (operator, partition) task.

    The executor feeds routed input through ``push`` one frame at a time
    and calls ``finish`` exactly once at end-of-stream; both return output
    tuples (possibly empty).  Tasks must not perform device I/O — a
    streaming chain runs inside its head operator's I/O accounting window.
    """

    def __init__(self, op: "OperatorDescriptor", ctx, partition: int):
        self.op = op
        self.ctx = ctx
        self.partition = partition

    def push(self, frame: list) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        return []


class OperatorDescriptor:
    """Base class for runtime operators; ``num_inputs`` declares the
    port count.  Subclasses implement ``run`` or ``start`` according to
    their ``streaming`` flag (see the module docstring)."""

    num_inputs = 1
    #: None = run at full cluster width; 1 = single (global) partition
    partition_count: int | None = None
    name = "op"
    #: True when the operator can consume its input one frame at a time
    #: without changing results or cost accounting.  Pipeline breakers —
    #: sort, group-by, join (its build side must be complete before the
    #: probe), the result writer, anything that buffers or reorders —
    #: keep the default False and act as stage boundaries in the
    #: executor's stage decomposition.
    streaming = False

    def run(self, ctx, partition: int, inputs: list):
        """Sources and pipeline breakers: consume one list of tuples per
        input port (already routed to this partition) and return an
        iterable of this partition's output tuples."""
        raise NotImplementedError

    def start(self, ctx, partition: int) -> OperatorTask:
        """Streaming operators: begin push-based execution."""
        raise NotImplementedError

    def prepare(self, config) -> None:
        """Per-job compilation hook, called once before execution.
        Operators that carry scalar expressions override this to compile
        them into closures via
        :func:`repro.hyracks.expressions.compile_expr`; the default is a
        no-op for expression-free operators."""

    def __repr__(self):
        return self.name


class ConnectorDescriptor:
    """Routes producer partitions to consumer partitions."""

    name = "connector"

    def route(self, producer_outputs: list, num_consumers: int,
              ctx) -> list:
        """``producer_outputs``: list over producer partitions of tuple
        lists.  Returns a list over consumer partitions of tuple lists."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


@dataclass
class _Edge:
    connector: ConnectorDescriptor
    producer: int
    consumer: int
    port: int


@dataclass
class JobSpecification:
    """A dataflow DAG: operators + connectors."""

    operators: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def add_operator(self, op: OperatorDescriptor) -> int:
        self.operators.append(op)
        return len(self.operators) - 1

    def connect(self, connector: ConnectorDescriptor, producer: int,
                consumer: int, port: int = 0) -> None:
        for op_id in (producer, consumer):
            if not 0 <= op_id < len(self.operators):
                raise CompilationError(f"unknown operator id {op_id}")
        self.edges.append(_Edge(connector, producer, consumer, port))

    def inputs_of(self, op_id: int) -> list:
        """Edges feeding op_id, ordered by port."""
        edges = [e for e in self.edges if e.consumer == op_id]
        edges.sort(key=lambda e: e.port)
        return edges

    def validate(self) -> None:
        """DAG sanity: ports match arity, no cycles, single-rooted sinks."""
        for op_id, op in enumerate(self.operators):
            edges = self.inputs_of(op_id)
            ports = [e.port for e in edges]
            if ports != list(range(op.num_inputs)):
                raise CompilationError(
                    f"operator {op_id} ({op!r}) expects "
                    f"{op.num_inputs} input(s), got ports {ports}"
                )
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[int]:
        indegree = {i: 0 for i in range(len(self.operators))}
        for e in self.edges:
            indegree[e.consumer] += 1
        ready = [i for i, d in indegree.items() if d == 0]
        order = []
        while ready:
            op_id = ready.pop()
            order.append(op_id)
            for e in self.edges:
                if e.producer == op_id:
                    indegree[e.consumer] -= 1
                    if indegree[e.consumer] == 0:
                        ready.append(e.consumer)
        if len(order) != len(self.operators):
            raise CompilationError("job graph has a cycle")
        return order

    def sinks(self) -> list[int]:
        producers = {e.producer for e in self.edges}
        return [i for i in range(len(self.operators)) if i not in producers]

    def describe(self) -> str:
        """Human-readable job summary (EXPLAIN output uses this)."""
        lines = []
        for op_id, op in enumerate(self.operators):
            feeds = [
                f"{e.producer}--{e.connector!r}-->"
                for e in self.inputs_of(op_id)
            ]
            prefix = " ".join(feeds)
            lines.append(f"  [{op_id}] {prefix} {op!r}".rstrip())
        return "\n".join(lines)


def prepare_job(job: JobSpecification, config) -> None:
    """Compile every operator's expressions for one job execution.

    Called by the cluster controller after ``validate()`` and before the
    first attempt — compilation happens once per job, never per tuple,
    per partition, or per retry (``prepare`` implementations are
    idempotent, so a re-run job simply keeps its closures)."""
    from repro.observability.metrics import get_registry

    for op in job.operators:
        op.prepare(config)
    get_registry().counter("expr.compile_jobs").inc()
