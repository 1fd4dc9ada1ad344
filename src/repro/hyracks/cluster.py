"""The simulated shared-nothing cluster (paper Fig. 1).

"The system is based on a traditional shared-nothing architecture, with
each node in a cluster managing one or more storage and index partitions
for its datasets ... the execution of the Hyracks jobs is coordinated by
the cluster controller."

Per DESIGN.md (Substitutions), the cluster is simulated in one process:

* :class:`NodeController` — one per node: its own I/O devices (real
  directories with real page files), buffer cache, WAL, transaction
  manager, and dataset partitions.
* :class:`ClusterController` — owns the topology, the dataset→partition
  map (primary-key hash partitioning), and job execution.

Jobs are split into *stages* at pipeline breakers and executed by the
pipelined executor (:mod:`repro.hyracks.executor`): within a stage,
fused chains of streaming operators pass ``frame_size``-tuple frames
instead of materializing; across a stage, the partitions run inline on
the calling thread, in ascending order, each under its node's lock —
while the profiler accounts them as parallel (elapsed = max over
partitions).  The job's simulated time is the sum of operator elapsed
times along the (serialized) dependency chain, applied identically to
every configuration, which is what lets experiment E3 exhibit the
scale-out *shape* of the paper's 180-node test on one machine.

Layer contract: this module accepts a validated
:class:`~repro.hyracks.job.JobSpecification` (from
:mod:`repro.algebricks.jobgen`) and returns a :class:`JobResult` whose
:class:`~repro.hyracks.profiler.JobProfile` carries per-(operator,
partition) costs.  It knows nothing about SQL++, logical plans, or the
catalog — only operators, connectors, and partitions.  Observability:
:meth:`ClusterController.run_job` emits one ``stage`` event per executed
stage and one ``operator`` span event per operator when handed a trace
span, and feeds the process-wide metrics registry (``hyracks.jobs``,
``hyracks.job_simulated_us``, ``hyracks.network_tuples``, plus the
``hyracks.executor.*`` / ``hyracks.pipeline.*`` families — see
docs/OBSERVABILITY.md and docs/ARCHITECTURE.md for the full tour).
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field

from repro.common.config import ClusterConfig
from repro.common.errors import MetadataError
from repro.hyracks.executor import JobExecutor
from repro.hyracks.job import JobSpecification, prepare_job
from repro.hyracks.memory import MemoryGovernor
from repro.hyracks.profiler import JobProfile
from repro.observability.metrics import get_registry
from repro.resilience import (
    NO_FAULTS,
    FaultInjector,
    MemoryBudgetFault,
    NodeCrashFault,
    NodeState,
    ResilienceFault,
    RetryPolicy,
    SimulatedClock,
)
from repro.storage.buffer_cache import BufferCache
from repro.storage.dataset_storage import PartitionStorage, SecondaryIndexSpec
from repro.storage.file_manager import FileManager
from repro.storage.iodevice import IODevice, IOStats
from repro.storage.lsm.merge_policy import PrefixMergePolicy
from repro.txn import (
    LogManager,
    RecoveryManager,
    TransactionManager,
    TransactionalPartition,
)


class NodeController:
    """One shared-nothing node: devices, cache, WAL, and its partitions.

    A node is a :class:`~repro.resilience.NodeState` lifecycle: ALIVE
    until :meth:`crash` (LSM memory components, buffer cache contents,
    un-fsynced WAL tail, and temp runfiles are lost; sealed disk
    components and the fsynced WAL prefix survive in the node's real
    directories), then FAILED until the cluster drives
    :meth:`begin_restart` / ``recover_partition...`` / WAL replay /
    :meth:`finish_restart` back to ALIVE.
    """

    def __init__(self, node_id: int, root: str, config: ClusterConfig,
                 injector: FaultInjector | None = None):
        self.node_id = node_id
        self.config = config
        self.root = root
        self.state = NodeState.ALIVE
        #: Node-scoped fault injector: every hit from this node's
        #: components carries ``node=node_id``, so schedules can pin
        #: rules to one node's (serialized, deterministic) hit stream.
        self.injector = (injector or NO_FAULTS).bind(node=node_id)
        #: Serializes task execution on this node.  One job runs its
        #: tasks inline, but concurrent sessions call ``run_job`` from
        #: several threads; the lock keeps their tasks on one node from
        #: interleaving in the buffer cache, WAL, and file manager.
        self.lock = threading.RLock()
        self.devices = [
            IODevice(d, os.path.join(root, f"iodevice{d}"))
            for d in range(config.node.num_io_devices)
        ]
        self.fm = FileManager(self.devices, config.page_size,
                              injector=self.injector)
        #: Node-level working-memory arbiter: every operator / query
        #: admission / feed batch takes its frames from this one budget.
        self.memory = MemoryGovernor(config.node.query_memory_frames,
                                     node_id=node_id)
        self.cache = BufferCache(self.fm, config.node.buffer_cache_pages)
        self.log = LogManager(os.path.join(root, "txnlog", "log"),
                              injector=self.injector)
        self.txn = TransactionManager(self.log)
        self.partitions: dict[tuple, PartitionStorage] = {}
        self.txn_partitions: dict[tuple, TransactionalPartition] = {}
        self.cluster_num_partitions = config.num_partitions
        self._crash_validators: dict[tuple, object] = {}

    # -- lifecycle ------------------------------------------------------------

    def _require_alive(self) -> None:
        if self.state is not NodeState.ALIVE:
            raise NodeCrashFault(
                f"node {self.node_id} is {self.state.value}",
                site="node.access", node=self.node_id,
            )

    def crash(self) -> None:
        """Simulate node death.  Volatile state dies: LSM memory
        components (the partition objects), dirty buffer-cache pages,
        the WAL tail past the last fsync, temp runfiles.  Durable state
        — sealed components, manifests, the fsynced WAL prefix — stays
        on disk for :meth:`begin_restart` to reopen."""
        if self.state is not NodeState.ALIVE:
            return
        self.state = NodeState.FAILED
        # catalog-installed record validators are node-memory state the
        # restart must re-install onto the recovered partitions
        self._crash_validators = {
            key: ps.validator for key, ps in self.partitions.items()
            if ps.validator is not None
        }
        self.partitions.clear()
        self.txn_partitions.clear()
        self.log.crash()
        self.fm.close()
        # memory grants die with the node: bump the governor generation
        # so releases of pre-crash grants become no-ops
        self.memory.reset()
        for device in self.devices:
            shutil.rmtree(os.path.join(device.root, "temp"),
                          ignore_errors=True)

    def begin_restart(self) -> None:
        """Reopen OS-level resources over the node's directories; the
        caller then recovers partitions and replays the WAL."""
        if self.state is not NodeState.FAILED:
            raise MetadataError(
                f"node {self.node_id} is {self.state.value}, not failed"
            )
        self.state = NodeState.RESTARTING
        self.fm = FileManager(self.devices, self.config.page_size,
                              injector=self.injector)
        self.cache = BufferCache(self.fm,
                                 self.config.node.buffer_cache_pages)
        self.log = LogManager(os.path.join(self.root, "txnlog", "log"),
                              injector=self.injector)
        self.txn = TransactionManager(self.log)

    def finish_restart(self) -> None:
        if self.state is not NodeState.RESTARTING:
            raise MetadataError(
                f"node {self.node_id} is {self.state.value}, "
                f"not restarting"
            )
        for key, validator in self._crash_validators.items():
            storage = self.partitions.get(key)
            if storage is not None:
                storage.validator = validator
        self._crash_validators = {}
        self.state = NodeState.ALIVE

    # -- partition management -------------------------------------------------

    def create_partition(self, dataset: str, partition_id: int,
                         pk_fields: tuple) -> PartitionStorage:
        self._require_alive()
        key = (dataset, partition_id)
        if key in self.partitions:
            raise MetadataError(
                f"partition {partition_id} of {dataset} already on node "
                f"{self.node_id}"
            )
        storage = PartitionStorage(
            self.fm, self.cache, dataset, partition_id, pk_fields,
            memory_budget_bytes=(self.config.node.memory_component_pages
                                 * self.config.page_size),
            merge_policy=PrefixMergePolicy(),
        )
        self.partitions[key] = storage
        self.txn_partitions[key] = TransactionalPartition(storage, self.txn)
        return storage

    def recover_partition(self, dataset: str, partition_id: int,
                          pk_fields: tuple, specs=()) -> PartitionStorage:
        """Reopen a partition from disk after a restart (manifests only;
        the caller replays the WAL afterwards)."""
        key = (dataset, partition_id)
        storage = PartitionStorage.recover(
            self.fm, self.cache, dataset, partition_id, pk_fields,
            specs=specs,
            memory_budget_bytes=(self.config.node.memory_component_pages
                                 * self.config.page_size),
            merge_policy=PrefixMergePolicy(),
        )
        self.partitions[key] = storage
        self.txn_partitions[key] = TransactionalPartition(storage, self.txn)
        return storage

    def replay_wal(self) -> int:
        """Replay committed entity operations into this node's recovered
        partitions; returns operations replayed.  Transaction ids then
        continue past the log's max, so an old uncommitted entity
        transaction can never be confused with a new committed one during
        a later recovery."""
        manager = RecoveryManager(self.log)
        replayed = manager.recover(self.partitions)
        self.txn.seed_ids(manager.max_txn_id + 1)
        return replayed

    def drop_partition(self, dataset: str, partition_id: int) -> None:
        key = (dataset, partition_id)
        storage = self.partitions.pop(key, None)
        self.txn_partitions.pop(key, None)
        if storage is not None:
            storage.drop()

    def get_partition(self, dataset: str, partition_id: int):
        self._require_alive()
        try:
            return self.partitions[(dataset, partition_id)]
        except KeyError:
            raise MetadataError(
                f"no partition {partition_id} of {dataset} on node "
                f"{self.node_id}"
            ) from None

    def get_txn_partition(self, dataset: str, partition_id: int):
        self._require_alive()
        try:
            return self.txn_partitions[(dataset, partition_id)]
        except KeyError:
            raise MetadataError(
                f"no partition {partition_id} of {dataset} on node "
                f"{self.node_id}"
            ) from None

    # -- temp-file accounting -----------------------------------------------

    def live_temp_files(self) -> list[str]:
        """Paths of run files currently on this node's disks (``temp/``
        under every I/O device).  A healthy idle node has none: spill
        consumers release their run files on exhaustion, early abandon,
        or failure — tests and the chaos harness assert this."""
        found = []
        for device in self.devices:
            temp_root = os.path.join(device.root, "temp")
            for dirpath, _dirnames, filenames in os.walk(temp_root):
                found.extend(os.path.join(dirpath, f) for f in filenames)
        return sorted(found)

    def purge_temp_files(self) -> int:
        """Delete every temp run file on this node — open handles first,
        then any stray on-disk files.  The job retry loop calls this
        between attempts: an aborted attempt's spill files are garbage
        by definition.  Returns the number of files removed."""
        purged = 0
        for handle in self.fm.handles_under("temp/"):
            self.fm.delete_file(handle)
            purged += 1
        for path in self.live_temp_files():
            try:
                os.remove(path)
                purged += 1
            except FileNotFoundError:
                pass
        return purged

    # -- I/O accounting ----------------------------------------------------------

    def io_snapshot(self) -> IOStats:
        total = IOStats()
        for device in self.devices:
            total = total + device.stats
        return total

    def charge_io_delta(self, ctx, before: IOStats) -> None:
        diff = self.io_snapshot().diff(before)
        ctx.charge_io(diff.reads, diff.writes, diff.seq_reads,
                      diff.seq_writes)

    def close(self) -> None:
        self.log.close()
        self.fm.close()


@dataclass
class DatasetInfo:
    name: str
    pk_fields: tuple
    indexes: dict = field(default_factory=dict)   # name -> spec


@dataclass
class JobResult:
    tuples: list
    profile: JobProfile


class ClusterController:
    """Topology + catalog-of-partitions + job executor.

    Also the failure detector and recovery coordinator: faults surfaced
    by a job (via :class:`~repro.resilience.ResilienceFault`) abort the
    in-flight stages, crashed nodes are restarted (partition recovery
    from LSM manifests + WAL replay + transaction-id reseeding), and the
    whole job is retried under the capped exponential backoff of
    ``config.resilience`` — against a simulated clock, so tests and the
    chaos harness never actually sleep."""

    def __init__(self, base_dir: str, config: ClusterConfig | None = None,
                 injector: FaultInjector | None = None):
        self.config = config or ClusterConfig()
        self.base_dir = base_dir
        self.injector = injector or NO_FAULTS
        self.clock = SimulatedClock()
        res = self.config.resilience
        self.retry_policy = RetryPolicy(
            max_attempts=res.max_job_attempts,
            base_delay_us=res.retry_base_us,
            multiplier=res.retry_multiplier,
            cap_us=res.retry_cap_us,
        )
        self.nodes = [
            NodeController(n, os.path.join(base_dir, f"node{n}"),
                           self.config, injector=self.injector)
            for n in range(self.config.num_nodes)
        ]
        self.datasets: dict[str, DatasetInfo] = {}

    # -- topology ---------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions

    def node_of_partition(self, partition_id: int) -> NodeController:
        return self.nodes[partition_id // self.config.partitions_per_node]

    def partition_of_key(self, pk: tuple) -> int:
        from repro.adm.values import hash_value

        return hash_value(pk) % self.num_partitions

    # -- dataset DDL ----------------------------------------------------------------

    def create_dataset(self, name: str, pk_fields: tuple) -> DatasetInfo:
        if name in self.datasets:
            raise MetadataError(f"dataset {name} already exists")
        for p in range(self.num_partitions):
            self.node_of_partition(p).create_partition(name, p, pk_fields)
        info = DatasetInfo(name, tuple(pk_fields))
        self.datasets[name] = info
        return info

    def recover_dataset(self, name: str, pk_fields: tuple,
                        specs=()) -> DatasetInfo:
        """Reopen a dataset's partitions from disk (restart path)."""
        if name in self.datasets:
            raise MetadataError(f"dataset {name} already open")
        for p in range(self.num_partitions):
            self.node_of_partition(p).recover_partition(
                name, p, pk_fields, specs)
        info = DatasetInfo(name, tuple(pk_fields),
                           {s.name: s for s in specs})
        self.datasets[name] = info
        return info

    def drop_dataset(self, name: str) -> None:
        info = self.datasets.pop(name, None)
        if info is None:
            raise MetadataError(f"no such dataset {name}")
        for p in range(self.num_partitions):
            self.node_of_partition(p).drop_partition(name, p)

    def create_index(self, dataset: str, spec: SecondaryIndexSpec) -> None:
        info = self._dataset(dataset)
        if spec.name in info.indexes:
            raise MetadataError(f"index {spec.name} already exists")
        for p in range(self.num_partitions):
            node = self.node_of_partition(p)
            node.get_partition(dataset, p).create_secondary(spec)
        info.indexes[spec.name] = spec

    def drop_index(self, dataset: str, index_name: str) -> None:
        info = self._dataset(dataset)
        if index_name not in info.indexes:
            raise MetadataError(f"no such index {index_name}")
        for p in range(self.num_partitions):
            node = self.node_of_partition(p)
            node.get_partition(dataset, p).drop_secondary(index_name)
        del info.indexes[index_name]

    def _dataset(self, name: str) -> DatasetInfo:
        try:
            return self.datasets[name]
        except KeyError:
            raise MetadataError(f"no such dataset {name}") from None

    # -- direct record routing (feeds, examples, and tests use this) ---------------

    def insert_record(self, dataset: str, record: dict,
                      *, upsert: bool = False):
        info = self._dataset(dataset)
        pk = tuple(record[f] for f in info.pk_fields)
        p = self.partition_of_key(pk)
        txn_part = self.node_of_partition(p).get_txn_partition(dataset, p)
        return txn_part.upsert(record) if upsert else txn_part.insert(record)

    def delete_record(self, dataset: str, pk: tuple):
        p = self.partition_of_key(pk)
        return self.node_of_partition(p).get_txn_partition(
            dataset, p).delete(pk)

    def get_record(self, dataset: str, pk: tuple):
        p = self.partition_of_key(pk)
        return self.node_of_partition(p).get_partition(dataset, p).get(pk)

    def scan_dataset(self, dataset: str):
        for p in range(self.num_partitions):
            storage = self.node_of_partition(p).get_partition(dataset, p)
            yield from storage.scan()

    def flush_dataset(self, dataset: str) -> None:
        for p in range(self.num_partitions):
            self.node_of_partition(p).get_partition(dataset, p).flush_all()

    # -- job execution -----------------------------------------------------------------

    def run_job(self, job: JobSpecification,
                span: object = None) -> JobResult:
        """Execute a job DAG; ``span`` (a tracing Span) gets one ``stage``
        event per executed stage and one ``operator`` event per operator
        with its simulated costs.

        Fault handling: a :class:`~repro.resilience.ResilienceFault`
        raised anywhere in an attempt aborts the whole attempt (tasks
        run inline, so the first fault stops the attempt and no later
        task starts), crashed nodes are restarted with WAL
        replay, and the job is retried from scratch under capped
        exponential backoff — up to ``config.resilience.max_job_attempts``
        attempts total."""
        job.validate()
        # compile every operator's expressions into closures, once per
        # job (see docs/PERFORMANCE.md)
        prepare_job(job, self.config)
        attempt = 1
        while True:
            self.ensure_alive(span)
            try:
                return self._run_job_once(job, span)
            except ResilienceFault as fault:
                registry = get_registry()
                if isinstance(fault, NodeCrashFault) \
                        and fault.node is not None:
                    self.crash_node(fault.node, span)
                # the aborted attempt's spill files are garbage: crashed
                # nodes cleared theirs in crash(); sweep the alive ones
                self._purge_attempt_temp_files(span)
                if isinstance(fault, MemoryBudgetFault) \
                        or attempt >= self.retry_policy.max_attempts:
                    registry.counter("resilience.job_failures").inc()
                    if span is not None:
                        span.add_event(
                            "job_failed", attempt=attempt,
                            fault=type(fault).__name__, site=fault.site,
                        )
                    raise
                delay = self.retry_policy.backoff(attempt, self.clock)
                registry.counter("resilience.job_retries").inc()
                if span is not None:
                    span.add_event(
                        "job_retry", attempt=attempt,
                        fault=type(fault).__name__, site=fault.site,
                        backoff_us=delay,
                    )
                attempt += 1

    def _run_job_once(self, job: JobSpecification,
                      span: object = None) -> JobResult:
        profile = JobProfile(self.config.cost)
        started = time.perf_counter()
        io_before = self._total_io()
        reservations = self._admit_query(span)
        try:
            result_tuples = JobExecutor(
                self, job, profile, span, reservations=reservations).run()
        finally:
            # every task has returned by now, so operator grants
            # borrowed against these reservations are back
            for grant in reservations.values():
                grant.release()
        diff = self._total_io().diff(io_before)
        profile.physical_reads = diff.total_reads
        profile.physical_writes = diff.total_writes
        profile.wall_seconds = time.perf_counter() - started
        registry = get_registry()
        registry.counter("hyracks.jobs").inc()
        registry.counter("hyracks.network_tuples").inc(
            profile.connector_network_tuples)
        registry.histogram("hyracks.job_simulated_us").observe(
            profile.simulated_us)
        registry.histogram("hyracks.job_wall_seconds").observe(
            profile.wall_seconds)
        return JobResult(result_tuples, profile)

    def _admit_query(self, span: object = None) -> dict:
        """Admission control: reserve ``query_admission_frames`` on every
        node before the job's first task runs, in ascending node order so
        concurrent queries can never deadlock on partial reservations.
        The reservation is the floor operator grants borrow against — an
        admitted query always makes progress, it just spills more.  On
        failure (capped wait expired, or the request can never fit) the
        partial reservation is rolled back and the typed 35xx fault
        propagates to the retry loop."""
        frames = self.config.node.query_admission_frames
        timeout_ms = self.config.node.admission_timeout_ms
        reservations: dict = {}
        try:
            for node in self.nodes:
                reservations[node.node_id] = node.memory.admit(
                    frames, label="query", timeout_ms=timeout_ms,
                    span=span)
        except ResilienceFault:
            for grant in reservations.values():
                grant.release()
            raise
        return reservations

    def _purge_attempt_temp_files(self, span: object = None) -> None:
        """Delete spill files a failed attempt left behind on ALIVE
        nodes (taking each node's lock: the attempt's tasks have all
        returned, so nothing of it is mid-write)."""
        purged = 0
        for node in self.nodes:
            if node.state is NodeState.ALIVE:
                with node.lock:
                    purged += node.purge_temp_files()
        if purged:
            get_registry().counter("hyracks.temp_files_purged").inc(purged)
            if span is not None:
                span.add_event("temp_files_purged", files=purged)

    # -- failure detection & recovery -------------------------------------------

    def crash_node(self, node_id: int, span: object = None) -> None:
        """Kill a node (idempotent): volatile state is lost, durable
        files survive.  ``resilience.node_crashes`` counts real
        transitions only."""
        node = self.nodes[node_id]
        if node.state is not NodeState.ALIVE:
            return
        node.crash()
        get_registry().counter("resilience.node_crashes").inc()
        if span is not None:
            span.add_event("node_crash", node=node_id)

    def restart_node(self, node_id: int, span: object = None) -> int:
        """Bring a FAILED node back: advance the simulated clock by the
        detection delay, reopen its files, recover every partition it
        hosts from the LSM manifests, replay the WAL (which reseeds
        transaction ids), and re-install catalog validators.  Returns the
        number of WAL operations replayed."""
        node = self.nodes[node_id]
        if node.state is NodeState.ALIVE:
            return 0
        self.clock.advance(self.config.resilience.detection_delay_us)
        node.begin_restart()
        for name, info in self.datasets.items():
            specs = tuple(info.indexes.values())
            for p in range(self.num_partitions):
                if self.node_of_partition(p) is node:
                    node.recover_partition(name, p, info.pk_fields, specs)
        replayed = node.replay_wal()
        node.finish_restart()
        registry = get_registry()
        registry.counter("resilience.node_restarts").inc()
        registry.counter("resilience.wal_replays").inc()
        registry.counter("resilience.wal_records_replayed").inc(replayed)
        if span is not None:
            span.add_event("node_restart", node=node_id,
                           wal_records_replayed=replayed)
        return replayed

    def ensure_alive(self, span: object = None) -> None:
        """Restart any node that is not ALIVE (the failure detector)."""
        for node in self.nodes:
            if node.state is not NodeState.ALIVE:
                self.restart_node(node.node_id, span)

    def handle_fault(self, fault: ResilienceFault,
                     span: object = None) -> None:
        """Recover the cluster after ``fault`` surfaced outside a job
        (e.g. during direct record routing): crash-then-restart the named
        node for crash faults, and make sure every node is ALIVE."""
        if isinstance(fault, NodeCrashFault) and fault.node is not None:
            self.crash_node(fault.node, span)
        self.ensure_alive(span)

    def _total_io(self) -> IOStats:
        total = IOStats()
        for node in self.nodes:
            total = total + node.io_snapshot()
        return total

    # -- maintenance ---------------------------------------------------------------------

    def checkpoint(self) -> None:
        for node in self.nodes:
            node.txn.checkpoint(list(node.partitions.values()))

    def recover(self) -> int:
        """Run WAL replay on every node (after reopening partitions)."""
        total = 0
        for node in self.nodes:
            manager = RecoveryManager(node.log)
            total += manager.recover(node.partitions)
        return total

    def close(self) -> None:
        for node in self.nodes:
            node.close()
