"""The node-level memory governor (paper Fig. 2's "working memory" box).

The companion BDMS paper (arXiv 1407.0454) describes each node dividing
its memory among the buffer cache, LSM memory components, and *working
memory* for memory-intensive operators — with per-operator budgets
arbitrated against one node-wide pool rather than handed out as private
fixed allocations.  This module is that arbiter for the simulated
cluster: one :class:`MemoryGovernor` per :class:`NodeController` owns
``NodeConfig.query_memory_frames`` frames and hands out
:class:`MemoryGrant` leases to

* **query admissions** — :meth:`admit` reserves
  ``query_admission_frames`` per node before a job's first stage runs.
  When the pool can't cover the reservation the query *queues* (a capped
  condition wait); the cap expiring surfaces as a typed
  :class:`~repro.resilience.MemoryPressureFault` (ASX3505), and a
  reservation larger than the whole budget is rejected immediately with
  :class:`~repro.resilience.MemoryBudgetFault` (ASX3506) — never a hang.
* **operators** — sort, group-by, and join request their
  ``*_memory_frames`` default (or explicit ``memory_frames``) through
  :meth:`acquire` and size their spill thresholds from the possibly
  reduced grant.  Operator grants never block: the query's admission
  reservation is borrowed as a floor, so an admitted query always makes
  progress, just with more spilling under contention.
* **feed batches** — the feed pump holds ``feed_memory_frames`` per node
  while ingesting a batch (:mod:`repro.feeds.feed`), so heavy queries
  apply backpressure to ingestion instead of letting it grow unbounded.

Serial equivalence: granting carries **no** simulated-clock charge, and
a request made with the pool otherwise idle receives exactly what it
asked for — so with the governor sized to the old per-operator defaults
and one query at a time, results, tuple counts, and simulated times are
byte-identical to the pre-governor fixed-budget behaviour.

Observability: every grant bumps the ``memory.*`` counter/gauge family
and, when a tracing span is at hand, emits one ``memory_grant`` span
event (docs/OBSERVABILITY.md lists the vocabulary).
"""

from __future__ import annotations

import threading
import time

from repro.observability.metrics import get_registry
from repro.resilience import MemoryBudgetFault, MemoryPressureFault


class MemoryGrant:
    """A lease on governor frames; release exactly once (idempotent).

    ``frames`` is what the requester may use; ``borrowed`` of those came
    out of the query's admission reservation (returned to it on release)
    and the rest (``frames - borrowed``) came from the node's free pool.
    Admission reservations are themselves grants with ``borrowed == 0``
    and a private ``available`` balance operators borrow against.
    """

    __slots__ = ("governor", "label", "frames", "borrowed", "available",
                 "reservation", "generation", "released")

    def __init__(self, governor: "MemoryGovernor", label: str, frames: int,
                 borrowed: int = 0,
                 reservation: "MemoryGrant | None" = None):
        self.governor = governor
        self.label = label
        self.frames = frames
        self.borrowed = borrowed
        self.reservation = reservation
        self.available = frames      # only meaningful for reservations
        self.generation = governor.generation
        self.released = False

    def release(self) -> None:
        self.governor.release(self)

    def __enter__(self) -> "MemoryGrant":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self):
        return (f"MemoryGrant({self.label}, frames={self.frames}, "
                f"borrowed={self.borrowed})")


class MemoryGovernor:
    """Arbitrates one node's working-memory frame budget.

    Thread-safe: concurrent sessions admit queries and acquire operator
    grants from their own threads, and feed pumps request from theirs.  ``used`` never exceeds ``capacity``; ``peak`` records the
    high-water mark (mirrored to the ``memory.node<N>.peak_frames``
    gauge, which the contention tests assert against).
    """

    def __init__(self, capacity_frames: int, node_id: int = 0):
        self.capacity = max(1, int(capacity_frames))
        self.node_id = node_id
        self.used = 0
        self.peak = 0
        #: Bumped when the node crashes (:meth:`reset`): grants issued
        #: before the crash died with the node and must not be
        #: double-counted when their holders unwind through ``finally``.
        self.generation = 0
        self._cond = threading.Condition()
        registry = get_registry()
        self._m_grants = registry.counter("memory.grants")
        self._m_reduced = registry.counter("memory.reduced_grants")
        self._m_releases = registry.counter("memory.releases")
        self._m_grant_frames = registry.histogram("memory.grant_frames")
        self._m_admissions = registry.counter("memory.admissions")
        self._m_waits = registry.counter("memory.admission_waits")
        self._m_wait_us = registry.histogram("memory.admission_wait_us")
        self._m_timeouts = registry.counter("memory.admission_timeouts")
        self._m_rejects = registry.counter("memory.admission_rejects")
        self._g_queue = registry.gauge("memory.admission_queue")
        self._g_used = registry.gauge(f"memory.node{node_id}.used_frames")
        self._g_peak = registry.gauge(f"memory.node{node_id}.peak_frames")

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # -- accounting (call with self._cond held) -------------------------------

    def _take(self, frames: int) -> None:
        self.used += frames
        if self.used > self.peak:
            self.peak = self.used
            self._g_peak.set(self.peak)
        self._g_used.set(self.used)

    def _give_back(self, frames: int) -> None:
        self.used -= frames
        self._g_used.set(self.used)
        self._cond.notify_all()

    # -- the three request paths ----------------------------------------------

    def admit(self, frames: int, *, label: str = "query",
              timeout_ms: float = 2000.0, span=None) -> MemoryGrant:
        """Reserve ``frames`` for an admitted query (or a feed batch),
        queueing up to ``timeout_ms`` wall milliseconds for the pool to
        drain.  Raises :class:`MemoryBudgetFault` when ``frames`` can
        never fit and :class:`MemoryPressureFault` when the wait cap
        expires — typed errors in both cases, never a hang."""
        frames = max(1, int(frames))
        if frames > self.capacity:
            self._m_rejects.inc()
            raise MemoryBudgetFault(
                f"minimum reservation of {frames} frames exceeds the "
                f"node budget of {self.capacity} frames "
                f"(NodeConfig.query_memory_frames)",
                site="memory.admit", node=self.node_id,
                context={"label": label, "frames": frames},
            )
        deadline = None
        waited = False
        started = time.perf_counter()
        with self._cond:
            while self.free < frames:
                if not waited:
                    waited = True
                    self._m_waits.inc()
                    self._g_queue.inc()
                if deadline is None:
                    deadline = started + timeout_ms / 1e3
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._cond.wait(remaining):
                    self._g_queue.dec()
                    self._m_timeouts.inc()
                    raise MemoryPressureFault(
                        f"{label} waited {timeout_ms:.0f}ms for {frames} "
                        f"frames ({self.used}/{self.capacity} in use)",
                        site="memory.admit", node=self.node_id,
                        context={"label": label, "frames": frames},
                    )
            if waited:
                self._g_queue.dec()
                self._m_wait_us.observe(
                    (time.perf_counter() - started) * 1e6)
            self._take(frames)
            grant = MemoryGrant(self, label, frames)
        self._m_admissions.inc()
        self._record(grant, frames, span, kind="memory_admission")
        return grant

    def acquire(self, desired: int, *, label: str = "op",
                reservation: MemoryGrant | None = None,
                span=None) -> MemoryGrant:
        """Grant up to ``desired`` frames to an operator, reduced —
        never queued — when the pool is contended.  Frames come first
        from the query's admission ``reservation`` (its guaranteed
        floor), then from the free pool; the grant is therefore at least
        1 frame for any admitted query and the operator spills more
        instead of waiting (waiting here could deadlock: the operator's
        task holds the node lock, which the grant holder may need)."""
        desired = max(1, int(desired))
        with self._cond:
            borrowed = 0
            if reservation is not None and not reservation.released \
                    and reservation.generation == self.generation:
                borrowed = min(reservation.available, desired)
                reservation.available -= borrowed
            extra = min(desired - borrowed, self.free)
            if borrowed + extra == 0:
                raise MemoryPressureFault(
                    f"{label} found its admission reservation and the "
                    f"free pool both empty "
                    f"({self.used}/{self.capacity} frames in use)",
                    site="memory.acquire", node=self.node_id,
                    context={"label": label, "desired": desired},
                )
            self._take(extra)
            grant = MemoryGrant(self, label, borrowed + extra, borrowed,
                                reservation)
        if grant.frames < desired:
            self._m_reduced.inc()
        self._record(grant, desired, span, kind="memory_grant")
        return grant

    def release(self, grant: MemoryGrant) -> None:
        """Return a grant's frames: pool-sourced frames to the free pool,
        borrowed frames to the query's admission reservation.  Idempotent;
        grants from before a node crash are dropped, not double-counted."""
        if grant.released:
            return
        grant.released = True
        if grant.generation != self.generation:
            return               # the crash already zeroed the pool
        with self._cond:
            if grant.borrowed and grant.reservation is not None \
                    and not grant.reservation.released:
                grant.reservation.available += grant.borrowed
            self._give_back(grant.frames - grant.borrowed)
        self._m_releases.inc()

    # -- crash fidelity --------------------------------------------------------

    def reset(self) -> None:
        """The node died: all leases die with it.  Holders unwinding
        later see the generation bump and skip their release."""
        with self._cond:
            self.generation += 1
            self.used = 0
            self._g_used.set(0)
            self._cond.notify_all()

    # -- observability ---------------------------------------------------------

    def _record(self, grant: MemoryGrant, desired: int, span,
                kind: str) -> None:
        self._m_grants.inc()
        self._m_grant_frames.observe(grant.frames)
        if span is not None:
            span.add_event(
                kind, node=self.node_id, label=grant.label,
                desired=desired, granted=grant.frames,
                borrowed=grant.borrowed, used_frames=self.used,
                capacity=self.capacity,
            )

    def __repr__(self):
        return (f"MemoryGovernor(node={self.node_id}, "
                f"used={self.used}/{self.capacity})")
