"""The task context operators run against.

:class:`TaskContext` gives operators access to the node hosting their
partition (storage, temp files), the cluster config (frame sizes, memory
budgets), and the cost-charging hooks that drive the simulated clock.
"""

from __future__ import annotations

import itertools

from repro.common.config import ClusterConfig
from repro.hyracks.keys import plain_key_bytes, plain_key_bytes_many
from repro.hyracks.profiler import PartitionCost

#: Process-wide monotonic sequence for temp-file names.  ``id(self)`` was
#: used before, but CPython reuses ids after GC, so two tasks could
#: collide on the same temp file; a counter is unique for the process
#: lifetime and safe for concurrent tasks (``itertools.count`` advances
#: atomically under CPython).
_TEMP_SEQ = itertools.count(1)


class TaskContext:
    """Per-(operator, partition) execution context.

    ``span`` (optional) receives ``memory_grant`` events; ``reservation``
    is the query's admission reservation on this task's node (a
    :class:`~repro.hyracks.memory.MemoryGrant`), the floor operator
    grants borrow against.
    """

    def __init__(self, node, config: ClusterConfig, cost: PartitionCost,
                 span=None, reservation=None, key_cache=None):
        self.node = node                  # NodeController hosting this task
        self.config = config
        self.cost = cost
        self.span = span
        self.reservation = reservation
        #: the job's KeyCache (None when an operator runs outside the
        #: executor, e.g. in a direct unit test)
        self.key_cache = key_cache

    # -- key extraction ----------------------------------------------------------

    def key_bytes(self, tup, cols) -> bytes:
        """Canonical bytes of ``tup``'s key columns (``cols`` a tuple of
        indexes, or None for the whole tuple), via the job's shared
        key cache when one is attached.  Join build/probe, group-by, and
        distinct all key through here, so a key value already seen in
        the job (at a connector or another operator) reuses its bytes
        instead of re-canonicalizing."""
        cache = self.key_cache
        if cache is not None:
            return cache.key_bytes(tup, cols)
        return plain_key_bytes(tup, cols)

    def key_bytes_many(self, tuples, cols) -> list:
        """Batched :meth:`key_bytes` over a whole frame — one call into
        the job's key cache instead of one per tuple.  Byte-identical
        output, same cache hit/miss accounting."""
        cache = self.key_cache
        if cache is not None:
            return cache.key_bytes_many(tuples, cols)
        return plain_key_bytes_many(tuples, cols)

    # -- cost charging ---------------------------------------------------------

    def charge_cpu(self, tuples: int) -> None:
        self.cost.cpu_us += tuples * self.config.cost.tuple_cpu_us

    def charge_hash(self, n: int) -> None:
        self.cost.cpu_us += n * self.config.cost.hash_us

    def charge_compare(self, n: int) -> None:
        self.cost.cpu_us += n * self.config.cost.compare_us

    def charge_network(self, tuples: int) -> None:
        self.cost.network_us += tuples * self.config.cost.network_tuple_us

    def charge_io(self, reads: int, writes: int, seq_reads: int,
                  seq_writes: int) -> None:
        c = self.config.cost
        self.cost.io_us += (
            reads * c.page_read_us + writes * c.page_write_us
            + seq_reads * c.seq_page_read_us
            + seq_writes * c.seq_page_write_us
        )

    # -- node services -----------------------------------------------------------

    def storage_partition(self, dataset: str, partition: int):
        return self.node.get_partition(dataset, partition)

    def txn_partition(self, dataset: str, partition: int):
        return self.node.get_txn_partition(dataset, partition)

    def make_temp_file(self, label: str):
        name = f"temp/{label}_{next(_TEMP_SEQ)}"
        return self.node.fm.create_file(name)

    def release_temp_file(self, handle) -> None:
        self.node.fm.delete_file(handle)

    # -- working memory ----------------------------------------------------------

    def acquire_memory(self, desired_frames: int, *, label: str = "op"):
        """Request ``desired_frames`` working-memory frames from this
        node's :class:`~repro.hyracks.memory.MemoryGovernor`.  The grant
        may be smaller under contention (spill accordingly); release it
        in a ``finally`` via :meth:`release_memory` or the grant's
        context manager."""
        return self.node.memory.acquire(
            desired_frames, label=label, reservation=self.reservation,
            span=self.span,
        )

    def release_memory(self, grant) -> None:
        grant.release()

    @property
    def frame_size(self) -> int:
        return self.config.frame_size
