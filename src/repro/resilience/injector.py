"""Deterministic, seeded fault injection.

Instrumented code calls :meth:`FaultInjector.hit` at *named sites* —
``disk.read_page``, ``wal.flush``, ``executor.operator``,
``feed.next_batch`` — on every pass through the guarded operation.  A
:class:`FaultSchedule` decides which hits raise which typed fault
(:mod:`repro.resilience.faults`), either on the **Nth hit** of a site or
by **seeded probability**, so a given (schedule, workload) pair always
fails at exactly the same operations: the property that makes the chaos
harness (`tools/chaos_runner.py`) able to assert byte-identical results
against a fault-free run, and the crash-point tests able to kill a node
at every WAL flush boundary in turn.

Determinism and threads: hit counters are kept **per (site, node)
stream**.  Every node-scoped site is only ever hit under that node's
lock (each task holds it while it runs), so each stream sees a
reproducible hit sequence no matter how concurrent sessions interleave.
Rules should therefore pin ``node`` when targeting node-scoped sites on
a multi-node cluster; probability rules draw from a per-stream RNG
seeded with ``(schedule.seed, site, node)`` via CRC32, never Python's
salted ``hash()``.

A disarmed injector (no schedule) is a near-no-op — one attribute check
per hit — so production paths keep it permanently wired in.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field

from repro.common.errors import AsterixError
from repro.observability.metrics import get_registry
from repro.resilience.faults import FAULT_KINDS, KIND_OF_FAULT, ResilienceFault


class FaultScheduleError(AsterixError):
    """A malformed fault rule or schedule."""

    code = 3510


@dataclass
class FaultRule:
    """One arming of one site.

    Exactly one of ``at_hit`` (fire on the Nth hit of the (site, node)
    stream, 1-based) or ``probability`` (fire each hit with probability
    p, drawn from the stream's seeded RNG) must be set.  ``node=None``
    matches every stream of the site; pin it for deterministic firing on
    multi-node clusters.  ``max_fires`` caps total firings (default 1:
    fail once, then let the retry succeed).
    """

    site: str
    fault: type = ResilienceFault
    at_hit: int | None = None
    probability: float | None = None
    node: int | None = None
    max_fires: int = 1
    fires: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.site:
            raise FaultScheduleError("fault rule needs a site")
        if not (isinstance(self.fault, type)
                and issubclass(self.fault, ResilienceFault)):
            raise FaultScheduleError(
                f"rule fault must be a ResilienceFault subclass, "
                f"got {self.fault!r}"
            )
        if (self.at_hit is None) == (self.probability is None):
            raise FaultScheduleError(
                f"rule for {self.site!r} must set exactly one of "
                f"at_hit / probability"
            )
        if self.at_hit is not None and self.at_hit < 1:
            raise FaultScheduleError("at_hit is 1-based and must be >= 1")
        if self.probability is not None \
                and not 0.0 < self.probability <= 1.0:
            raise FaultScheduleError("probability must be in (0, 1]")

    def matches(self, site: str, node: int | None) -> bool:
        return (self.site == site
                and (self.node is None or self.node == node))

    def to_dict(self) -> dict:
        out = {"site": self.site, "fault": KIND_OF_FAULT[self.fault],
               "max_fires": self.max_fires}
        if self.node is not None:
            out["node"] = self.node
        if self.at_hit is not None:
            out["at_hit"] = self.at_hit
        else:
            out["probability"] = self.probability
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        kind = data.get("fault", "")
        if kind not in FAULT_KINDS:
            raise FaultScheduleError(
                f"unknown fault kind {kind!r} "
                f"(known: {', '.join(sorted(FAULT_KINDS))})"
            )
        return cls(
            site=data.get("site", ""),
            fault=FAULT_KINDS[kind],
            at_hit=data.get("at_hit"),
            probability=data.get("probability"),
            node=data.get("node"),
            max_fires=data.get("max_fires", 1),
        )


@dataclass
class FaultSchedule:
    """A seeded list of :class:`FaultRule`; JSON-serializable so the
    chaos runner can commit its schedule next to its report."""

    rules: list = field(default_factory=list)
    seed: int = 0

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(
            rules=[FaultRule.from_dict(r) for r in data.get("rules", [])],
            seed=data.get("seed", 0),
        )


class FaultInjector:
    """Evaluates a :class:`FaultSchedule` at named injection sites.

    One injector serves a whole cluster; components hold
    :meth:`bind`-scoped views that stamp their node id onto every hit.
    ``hit`` raises the rule's typed fault when a rule fires — the caller
    never checks a return value, faults propagate like any error.
    """

    def __init__(self, schedule: FaultSchedule | None = None):
        self._lock = threading.Lock()
        self.history: list[dict] = []   # every firing, in order
        self.hits: dict = {}            # (site, node) -> count
        self._rngs: dict = {}
        self.schedule = None
        if schedule is not None:
            self.arm(schedule)

    @property
    def armed(self) -> bool:
        return self.schedule is not None and bool(self.schedule.rules)

    def arm(self, schedule: FaultSchedule | None) -> None:
        """Install ``schedule``, resetting hit counters, RNGs, and rule
        fire counts (tests arm after setup so setup traffic never
        consumes scheduled hits)."""
        with self._lock:
            self.schedule = schedule
            self.hits.clear()
            self._rngs.clear()
            self.history.clear()
            if schedule is not None:
                for rule in schedule.rules:
                    rule.fires = 0

    def disarm(self) -> None:
        self.arm(None)

    def bind(self, **context) -> "ScopedInjector":
        """A view of this injector with ``context`` (typically
        ``node=<id>``) merged into every hit."""
        return ScopedInjector(self, context)

    def hit(self, site: str, **context) -> None:
        """Record one pass through ``site``; raises the scheduled typed
        fault if a rule fires."""
        if not self.armed:
            return
        node = context.get("node")
        with self._lock:
            stream = (site, node)
            count = self.hits.get(stream, 0) + 1
            self.hits[stream] = count
            fault = self._evaluate(site, node, count, context)
        if fault is not None:
            raise fault

    def _evaluate(self, site, node, count, context):
        for rule in self.schedule.rules:
            if rule.fires >= rule.max_fires or not rule.matches(site, node):
                continue
            if rule.at_hit is not None:
                fire = count == rule.at_hit
            else:
                fire = self._rng(site, node).random() < rule.probability
            if not fire:
                continue
            rule.fires += 1
            fault = rule.fault(site=site, node=node, context=context)
            kind = KIND_OF_FAULT[type(fault)]
            self.history.append({
                "site": site, "node": node, "hit": count, "fault": kind,
            })
            registry = get_registry()
            registry.counter("resilience.faults_injected").inc()
            registry.counter(f"resilience.faults.{kind}").inc()
            return fault
        return None

    def _rng(self, site: str, node: int | None) -> random.Random:
        key = (site, node)
        rng = self._rngs.get(key)
        if rng is None:
            # CRC32 keeps the stream seed stable across processes
            # (hash() of a str is salted per interpreter run)
            material = f"{self.schedule.seed}:{site}:{node}".encode()
            rng = random.Random(zlib.crc32(material))
            self._rngs[key] = rng
        return rng


class ScopedInjector:
    """A bound view: same injector, with base context pre-merged."""

    def __init__(self, injector: FaultInjector, context: dict):
        self.injector = injector
        self.context = dict(context)

    def hit(self, site: str, **context) -> None:
        self.injector.hit(site, **{**self.context, **context})

    def bind(self, **context) -> "ScopedInjector":
        return ScopedInjector(self.injector, {**self.context, **context})


#: Shared disarmed injector for components built without one.
NO_FAULTS = FaultInjector()
