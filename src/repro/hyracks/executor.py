"""The pipelined Hyracks job executor.

Accounting is per (operator, partition) — the simulated clock sums
:class:`~repro.hyracks.profiler.PartitionCost` sinks — while execution
follows Hyracks:

* **Stages.**  The job DAG is split into stages at pipeline breakers:
  an edge is fused only when it is a same-width one-to-one connector into
  a single-input *streaming* consumer (``OperatorDescriptor.streaming``).
  Sort, group-by, joins, and the result writer keep ``streaming = False``
  and therefore bound their own stages, exactly the points where real
  Hyracks materializes (see :mod:`repro.hyracks.operators.base`).

* **Frames.**  Within a fused chain, tuples flow in frames of
  ``config.frame_size`` tuples through push-based
  :class:`~repro.hyracks.job.OperatorTask` objects, so peak intermediate
  state inside a stage is one frame per operator, not every operator's
  full output.  Streaming tasks defer their batch charges to
  ``finish``, so the simulated clock does not depend on the framing.
  A streaming operator that could not fuse with its producer (its input
  arrives through a repartitioning connector) heads its own stage and
  is driven through the same task over its routed input.

* **Inline partitions.**  The coordinator runs each stage's partitions
  one after another on the calling thread, in ascending partition order,
  each under its node's lock (which serializes the tasks of concurrent
  sessions on one node).  Parallelism is a simulated-clock quantity:
  the profiler charges each (operator, partition) separately and takes
  an operator's elapsed time as the max over its partitions, as if they
  ran concurrently on separate machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.hyracks.connectors import OneToOneConnector
from repro.hyracks.job import JobSpecification
from repro.hyracks.keys import KeyCache
from repro.hyracks.operators.base import TaskContext
from repro.hyracks.operators.result import ResultWriterOp
from repro.observability.metrics import get_registry
from repro.resilience import NodeCrashFault, NodeState


class _ConnCtx:
    """Cost sink for connector routing; the executor spreads the charge
    across the consuming partitions afterwards."""

    def __init__(self, cost_model, key_cache=None):
        self.cost = cost_model
        self.key_cache = key_cache
        self.network_tuples = 0
        self.cpu_us = 0.0

    def charge_network(self, n):
        self.network_tuples += n

    def charge_hash(self, n):
        self.cpu_us += n * self.cost.hash_us

    def charge_compare(self, n):
        self.cpu_us += n * self.cost.compare_us


@dataclass
class Stage:
    """One maximal fused chain of operators (head first)."""

    index: int
    op_ids: list

    @property
    def head(self) -> int:
        return self.op_ids[0]

    @property
    def tail(self) -> int:
        return self.op_ids[-1]

    @property
    def pipelined(self) -> bool:
        return len(self.op_ids) > 1


def _effective_width(op, num_partitions: int) -> int:
    return op.partition_count or num_partitions


def build_stages(job: JobSpecification, num_partitions: int) -> list:
    """Split the DAG into stages, fusing streamable one-to-one chains.

    Stages are emitted in an order derived from the job's topological
    order, so executing them sequentially respects every dependency.
    """
    order = job.topological_order()
    out_edges: dict = {}
    for e in job.edges:
        out_edges.setdefault(e.producer, []).append(e)
    assigned: set = set()
    stages: list = []
    for op_id in order:
        if op_id in assigned:
            continue
        chain = [op_id]
        cur = op_id
        while True:
            outs = out_edges.get(cur, [])
            if len(outs) != 1:
                break
            edge = outs[0]
            consumer = job.operators[edge.consumer]
            if not isinstance(edge.connector, OneToOneConnector):
                break
            if consumer.num_inputs != 1 or not consumer.streaming:
                break
            if (_effective_width(job.operators[cur], num_partitions)
                    != _effective_width(consumer, num_partitions)):
                break
            chain.append(edge.consumer)
            cur = edge.consumer
        assigned.update(chain)
        stages.append(Stage(len(stages), chain))
    return stages


class JobExecutor:
    """Executes one validated job on a cluster controller.

    The coordinator (this class) routes connectors, enforces stage
    barriers and runs every per-partition task on the calling thread.
    """

    def __init__(self, cluster, job: JobSpecification, profile, span=None,
                 reservations=None):
        self.cluster = cluster
        self.job = job
        self.profile = profile
        self.span = span
        #: node_id -> the query's admission MemoryGrant on that node
        #: (empty when the caller runs without admission control)
        self.reservations = reservations or {}
        self.config = cluster.config
        #: job-lifetime key-bytes/hash memo shared by partitioning
        #: connectors, hash-join build/probe, group-by, and distinct
        self.key_cache = KeyCache()
        registry = get_registry()
        self._m_stages = registry.counter("hyracks.executor.stages")
        self._m_tasks = registry.counter("hyracks.executor.tasks")
        self._m_fused = registry.counter("hyracks.pipeline.fused_chains")
        self._m_frames = registry.counter("hyracks.pipeline.frames")
        self._m_frame_tuples = registry.histogram(
            "hyracks.pipeline.frame_tuples")
        self._m_batch_tuples = registry.counter("hyracks.batch.tuples")

    # -- coordinator ---------------------------------------------------------

    def run(self) -> list:
        job, profile = self.job, self.profile
        stages = build_stages(job, self.cluster.num_partitions)
        # operator profiles are created in topological order, whatever
        # order the stages execute in
        op_profiles = {
            op_id: profile.new_operator(
                repr(job.operators[op_id]),
                estimated_cardinality=getattr(
                    job.operators[op_id], "estimated_cardinality", None),
            )
            for op_id in job.topological_order()
        }
        outputs: dict = {}
        result_tuples: list = []
        for stage in stages:
            started = time.perf_counter()
            stage_outputs = self._run_stage(stage, op_profiles, outputs)
            outputs[stage.tail] = stage_outputs
            width = _effective_width(job.operators[stage.head],
                                     self.cluster.num_partitions)
            self._m_stages.inc()
            if stage.pipelined:
                self._m_fused.inc()
            profile.stages.append({
                "index": stage.index,
                "ops": [repr(job.operators[i]) for i in stage.op_ids],
                "width": width,
                "pipelined": stage.pipelined,
                "wall_seconds": time.perf_counter() - started,
            })
            if self.span is not None:
                self.span.add_event(
                    "stage", index=stage.index, width=width,
                    pipelined=stage.pipelined,
                    ops=[repr(job.operators[i]) for i in stage.op_ids],
                )
            for op_id in stage.op_ids:
                op = job.operators[op_id]
                op_profile = op_profiles[op_id]
                profile.simulated_us += op_profile.elapsed_us
                if self.span is not None:
                    self.span.add_event(
                        "operator", op_id=op_id, op=repr(op), width=width,
                        elapsed_us=op_profile.elapsed_us,
                        tuples_out=op_profile.total_tuples_out,
                    )
                if isinstance(op, ResultWriterOp):
                    result_tuples = op.collected
        self.key_cache.flush_metrics(get_registry())
        return result_tuples

    def _run_stage(self, stage: Stage, op_profiles, outputs) -> list:
        job = self.job
        head_op = job.operators[stage.head]
        width = _effective_width(head_op, self.cluster.num_partitions)
        head_profile = op_profiles[stage.head]
        # route each input edge of the stage head to its partitions
        routed_per_edge = []
        for edge in job.inputs_of(stage.head):
            conn_ctx = _ConnCtx(self.config.cost, key_cache=self.key_cache)
            routed = edge.connector.route(
                outputs[edge.producer], width, conn_ctx
            )
            self.profile.connector_network_tuples += conn_ctx.network_tuples
            per_part_net = (
                conn_ctx.network_tuples
                * self.config.cost.network_tuple_us / width
            )
            per_part_cpu = conn_ctx.cpu_us / width
            for p in range(width):
                cost = head_profile.cost(p)
                cost.network_us += per_part_net
                cost.cpu_us += per_part_cpu
            routed_per_edge.append(routed)
        # interior operators get cost entries for every partition, even
        # ones no frame reaches
        for op_id in stage.op_ids[1:]:
            for p in range(width):
                op_profiles[op_id].cost(p)
        # run the partitions inline, in ascending order (a one-partition
        # stage runs on node 0)
        self._m_tasks.inc(width)
        return [
            self._run_partition(stage, self.cluster.node_of_partition(p), p,
                                routed_per_edge, op_profiles)
            for p in range(width)
        ]

    # -- one (stage, partition) task ----------------------------------------

    def _run_partition(self, stage: Stage, node, partition: int,
                       routed_per_edge, op_profiles) -> list:
        job, config = self.job, self.config
        ops = [job.operators[i] for i in stage.op_ids]
        head = ops[0]
        with node.lock:
            # a task scheduled onto a dead node surfaces the crash to the
            # coordinator, which aborts the attempt and retries the job
            if node.state is not NodeState.ALIVE:
                raise NodeCrashFault(
                    f"task for partition {partition} scheduled on "
                    f"{node.state.value} node {node.node_id}",
                    site="executor.task", node=node.node_id,
                )
            node.injector.hit("executor.operator", partition=partition,
                              op=repr(head), stage=stage.index)
            reservation = self.reservations.get(node.node_id)
            head_ctx = TaskContext(
                node, config, op_profiles[stage.head].cost(partition),
                span=self.span, reservation=reservation,
                key_cache=self.key_cache)
            head_inputs = [routed[partition] for routed in routed_per_edge]
            head_ctx.cost.tuples_in += sum(len(x) for x in head_inputs)
            if head.streaming:
                # could not fuse with its producer: the same task, fed
                # its whole routed input as one push
                head_task = head.start(head_ctx, partition)
                produced = (head_task.push(head_inputs[0])
                            + head_task.finish())
            else:
                produced = head.run(head_ctx, partition, head_inputs)
            if not stage.pipelined:
                return list(produced)
            tasks = [
                op.start(
                    TaskContext(node, config,
                                op_profiles[op_id].cost(partition),
                                span=self.span, reservation=reservation,
                                key_cache=self.key_cache),
                    partition,
                )
                for op_id, op in zip(stage.op_ids[1:], ops[1:])
            ]
            sink: list = []
            frame: list = []
            frame_size = config.frame_size
            for tup in produced:
                frame.append(tup)
                if len(frame) >= frame_size:
                    self._emit_frame(tasks, 0, frame, sink)
                    frame = []
            if frame:
                self._emit_frame(tasks, 0, frame, sink)
            for i, task in enumerate(tasks):
                tail = task.finish()
                if tail:
                    self._push(tasks, i + 1, tail, sink)
            return sink

    def _emit_frame(self, tasks, start: int, frame: list, sink: list):
        self._m_frames.inc()
        self._m_frame_tuples.observe(len(frame))
        self._m_batch_tuples.inc(len(frame))
        self._push(tasks, start, frame, sink)

    @staticmethod
    def _push(tasks, start: int, data: list, sink: list):
        """Feed ``data`` through ``tasks[start:]``; whatever survives the
        whole chain lands in ``sink``."""
        for task in tasks[start:]:
            task.ctx.cost.tuples_in += len(data)
            data = task.push(data)
            if not data:
                return
        sink.extend(data)
