"""Cluster and node configuration.

The paper's Figure 2 describes how each node in an AsterixDB cluster divides
its memory among ingestion buffering (LSM memory components), the buffer
cache, and working memory for memory-intensive operators.  This module holds
those knobs plus the simulated-I/O cost model used by the in-process cluster
(see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field


DEFAULT_PAGE_SIZE = 4096
DEFAULT_FRAME_SIZE = 128          # tuples per runtime frame


@dataclass
class CostModel:
    """Simulated time costs, in microseconds.

    The in-process cluster charges these per event; elapsed time for a
    parallel stage is the max over partitions of accumulated charges, which
    is what lets a single-threaded simulation show scale-out shape.
    """

    page_read_us: float = 100.0       # random page read from "disk"
    page_write_us: float = 100.0
    seq_page_read_us: float = 30.0    # sequential read (scans, merges)
    seq_page_write_us: float = 30.0
    tuple_cpu_us: float = 0.5         # per-tuple operator processing
    network_tuple_us: float = 1.0     # per-tuple cost over a connector
    hash_us: float = 0.2              # per hash computation
    compare_us: float = 0.1           # per key comparison


@dataclass
class NodeConfig:
    """Per-node resource budgets (Figure 2)."""

    num_io_devices: int = 1
    buffer_cache_pages: int = 256
    memory_component_pages: int = 64   # LSM memory-component budget/dataset
    sort_memory_frames: int = 32       # default sort grant request
    join_memory_frames: int = 32       # default join grant request
    group_memory_frames: int = 32      # default group-by grant request
    #: One node-wide working-memory budget (Figure 2's "working memory"
    #: box), arbitrated by :class:`repro.hyracks.memory.MemoryGovernor`
    #: across every concurrent operator, query admission, and feed batch
    #: on the node.  The per-operator ``*_memory_frames`` knobs above are
    #: *grant requests* against this pool, not private allocations: alone
    #: on the node an operator receives its full request (so behaviour is
    #: identical to the pre-governor fixed budgets); under contention the
    #: grant is reduced and the operator spills more.
    query_memory_frames: int = 4096
    #: Frames reserved per admitted query on each node; the reservation
    #: guarantees every operator of an admitted query at least this much,
    #: so admitted queries always make progress (no mid-query deadlock).
    query_admission_frames: int = 4
    #: Frames a feed pump holds per node while ingesting one batch —
    #: backpressure: heavy queries holding working memory delay the pump
    #: instead of letting ingestion buffering grow without bound.
    feed_memory_frames: int = 4
    #: Cap, in *wall* milliseconds, on how long an admission (or feed)
    #: request queues for frames before failing with a typed
    #: ``MemoryPressureFault`` (ASX3505).  Queueing only ever happens
    #: when concurrent sessions or feed pumps contend for one node's
    #: frames, so this is a wall-clock knob; it never touches the
    #: simulated clock.
    admission_timeout_ms: float = 2000.0


@dataclass
class ResilienceConfig:
    """Failure handling knobs (docs/RESILIENCE.md).

    Job-level failure detection retries a failed Hyracks job up to
    ``max_job_attempts`` extra times with capped exponential backoff
    (``retry_base_us * retry_multiplier**(k-1)``, capped at
    ``retry_cap_us``) on the cluster's *simulated* clock — no wall-clock
    sleeping.  ``detection_delay_us`` is the simulated failure-detection
    latency charged before a crashed node restarts;
    ``feed_retry_attempts`` bounds how often one pump re-pulls a feed
    source (or re-applies one record) before giving up for the round.
    """

    max_job_attempts: int = 3
    retry_base_us: float = 1000.0
    retry_multiplier: float = 2.0
    retry_cap_us: float = 64000.0
    detection_delay_us: float = 500.0
    feed_retry_attempts: int = 4


@dataclass
class ClusterConfig:
    """Whole-cluster configuration: topology plus per-node budgets."""

    num_nodes: int = 2
    partitions_per_node: int = 2
    page_size: int = DEFAULT_PAGE_SIZE
    frame_size: int = DEFAULT_FRAME_SIZE
    node: NodeConfig = field(default_factory=NodeConfig)
    cost: CostModel = field(default_factory=CostModel)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    @property
    def num_partitions(self) -> int:
        return self.num_nodes * self.partitions_per_node
