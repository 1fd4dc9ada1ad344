"""Per-job key-bytes/hash cache.

Every layer that keys tuples — hash-partitioning connectors, hash-join
build/probe, group-by, distinct — needs the same derived quantity: the
canonical bytes (and FNV hash) of a tuple's key columns.  Computing them
is a per-byte Python loop, while a job typically sees few distinct keys
(a join or group-by over a foreign key repeats each key many times).

:class:`KeyCache` memoizes by the key's *values*: each distinct key is
canonicalized and hashed once per job, and every later tuple with that
key — at any connector or operator, on any key columns — costs one dict
probe.  The memo key is the scalar for a one-column key and the value
tuple otherwise (``cols=None`` keys the whole tuple), and it is used
only when every value is of exact type ``int`` or ``str``.  Python
treats ``True == 1`` and ``1 == 1.0`` as one dict key although their
canonical bytes differ, so ``bool``, ``float``, ``None``, ``MISSING``
and nested or temporal values are never memoized; their keys are
computed directly, per call.  Every entry is ``(plain_key_bytes,
fnv1a_bytes of those bytes)``, exactly what the uncached path returns,
so partition placement and routing do not depend on the cache.

Thread safety.  The executor creates one cache per job run, and a job
runs all of its tasks and connector routing on one thread, so the memo
and the counters are never shared between threads (concurrent sessions
each run their own job, with their own cache).  Hit/miss totals are
exact: misses are the memo entries the job created plus the keys
computed without storing, hits are all lookups minus misses.

The cache changes nothing observable except wall-clock time: simulated
``charge_hash`` costs are charged by the *logical* operation count at
each layer, so the simulated clock is identical with the cache hot or
cold.  Totals surface as the ``hyracks.batch.key_cache_hits`` /
``hyracks.batch.key_cache_misses`` counters when the executor flushes
them after the run.
"""

from __future__ import annotations

from repro.adm.values import canonical_bytes, fnv1a_bytes


def plain_key_bytes(tup, cols) -> bytes:
    """Canonical bytes of ``tup``'s key columns (``cols=None`` keys the
    whole tuple) — the uncached reference computation.  Uses the composite
    (field-sequence) form, so it agrees with ``hash_value`` over the same
    key tuple and with primary-key routing in the cluster."""
    if cols is None:
        return canonical_bytes(tup)
    return canonical_bytes(tuple(tup[i] for i in cols))


def plain_key_bytes_many(tuples, cols) -> list:
    """Batch :func:`plain_key_bytes` over a frame, one bytes per tuple."""
    if cols is None:
        return [canonical_bytes(t) for t in tuples]
    return [canonical_bytes(tuple(t[i] for i in cols)) for t in tuples]


class KeyCache:
    """Job-lifetime memo of key bytes and key hashes, keyed by value.

    Bounded: past ``max_entries`` the cache computes without storing, so a
    pathological job degrades to the uncached behavior instead of growing
    without limit.
    """

    __slots__ = ("_memo", "max_entries", "lookups", "uncached")

    def __init__(self, max_entries: int = 1 << 20):
        #: memo key -> (key_bytes, key_hash)
        self._memo: dict = {}
        self.max_entries = max_entries
        self.lookups = 0
        #: keys computed without storing (not memoizable, or past the cap)
        self.uncached = 0

    @property
    def misses(self) -> int:
        """Keys computed this job: memo entries plus uncached computes."""
        return len(self._memo) + self.uncached

    @property
    def hits(self) -> int:
        """Lookups served from the memo without computing."""
        return self.lookups - self.misses

    def _entry(self, tup, cols):
        """``(key_bytes, key_hash)`` of ``tup``'s key, from the memo or
        computed (and stored below the cap); None when some value is not
        exactly an int or str, so the key must be computed directly."""
        self.lookups += 1
        if cols is not None and len(cols) == 1:
            mk = tup[cols[0]]
            memoizable = type(mk) is int or type(mk) is str
        else:
            mk = tup if cols is None else tuple([tup[i] for i in cols])
            memoizable = type(mk) is tuple and all(
                type(v) is int or type(v) is str for v in mk)
        if not memoizable:
            self.uncached += 1
            return None
        memo = self._memo
        entry = memo.get(mk)
        if entry is None:
            kb = plain_key_bytes(tup, cols)
            entry = (kb, fnv1a_bytes(kb))
            if len(memo) < self.max_entries:
                memo[mk] = entry
            else:
                self.uncached += 1
        return entry

    def key_bytes(self, tup, cols) -> bytes:
        """Cached :func:`plain_key_bytes` (``cols`` a sequence of column
        indexes, or None for the whole tuple)."""
        entry = self._entry(tup, cols)
        return plain_key_bytes(tup, cols) if entry is None else entry[0]

    def key_bytes_many(self, tuples, cols) -> list:
        """Batch :meth:`key_bytes` over a whole frame in one call (the
        batched group-by/distinct entry point), with hit/miss accounting
        identical to per-tuple calls."""
        key_bytes = self.key_bytes
        return [key_bytes(tup, cols) for tup in tuples]

    def key_hash(self, tup, cols) -> int:
        """FNV-1a of :meth:`key_bytes` — equal to ``hash_value`` over the
        key tuple, so connector routing agrees with primary-key routing
        (``ClusterController.partition_of_key``)."""
        entry = self._entry(tup, cols)
        if entry is None:
            return fnv1a_bytes(plain_key_bytes(tup, cols))
        return entry[1]

    def flush_metrics(self, registry) -> None:
        """Fold the job's hit/miss totals into the metrics registry (one
        locked increment per job instead of two per tuple), then empty
        the memo and zero the counters."""
        hits, misses = self.hits, self.misses
        if hits:
            registry.counter("hyracks.batch.key_cache_hits").inc(hits)
        if misses:
            registry.counter("hyracks.batch.key_cache_misses").inc(misses)
        self._memo.clear()
        self.lookups = self.uncached = 0
