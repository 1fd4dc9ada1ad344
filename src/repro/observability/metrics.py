"""The process-wide metrics registry (counters, gauges, histograms).

Instrumented subsystems (the buffer cache, the LSM lifecycles, the
cluster's job executor, the API layer) register named metrics here and
bump them as events happen; benchmarks and the query tracer read them
back via :meth:`MetricsRegistry.snapshot` and per-query deltas.

Conventions (documented for benchmark authors in docs/OBSERVABILITY.md):

* metric names are dot-separated ``subsystem.event`` strings, e.g.
  ``buffer_cache.hits`` or ``lsm.flushes``;
* counters are monotonic within a registry generation — :meth:`reset`
  zeroes values **in place**, so cached ``Counter`` handles held by
  long-lived objects stay valid across resets;
* histograms record raw observations (bounded reservoir) and expose
  ``count/sum/mean/min/max/percentile``.

There is one default registry per process (:func:`get_registry`),
mirroring the "one metrics endpoint per node" shape of the real
system's cluster controller.
"""

from __future__ import annotations

import threading
from bisect import insort

from repro.common.errors import AsterixError


class MetricError(AsterixError):
    """Metric name registered twice with conflicting types."""

    code = 3900


class Counter:
    """A monotonically increasing count of events.

    Updates are lock-protected: concurrent sessions and feed pumps bump
    metrics from several threads at once, and ``value += n`` on its own
    is not atomic in CPython.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (e.g. pinned pages, open txns)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def __repr__(self):
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Raw-observation histogram with a bounded, sorted reservoir.

    Keeps up to ``max_samples`` observations (oldest evicted first, which
    is adequate for per-query latency distributions); ``count`` and
    ``sum`` are exact regardless of eviction.
    """

    __slots__ = ("name", "max_samples", "count", "sum", "min", "max",
                 "_sorted", "_order", "_lock")

    def __init__(self, name: str, max_samples: int = 4096):
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._sorted: list[float] = []
        self._order: list[float] = []    # insertion order, for eviction
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._order) >= self.max_samples:
                oldest = self._order.pop(0)
                idx = self._index_of(oldest)
                if idx is not None:
                    self._sorted.pop(idx)
            insort(self._sorted, value)
            self._order.append(value)

    def _index_of(self, value: float):
        from bisect import bisect_left

        i = bisect_left(self._sorted, value)
        if i < len(self._sorted) and self._sorted[i] == value:
            return i
        return None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """p in [0, 100]; nearest-rank over the reservoir."""
        if not self._sorted:
            return 0.0
        if not 0 <= p <= 100:
            raise MetricError(f"percentile {p} out of range")
        rank = max(0, min(len(self._sorted) - 1,
                          int(round(p / 100.0 * (len(self._sorted) - 1)))))
        return self._sorted[rank]

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None
            self._sorted.clear()
            self._order.clear()

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Name -> metric instance; get-or-create, type-checked."""

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """name -> scalar value (histograms become summary dicts)."""
        out = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def delta(self, before: dict) -> dict:
        """Counter/gauge changes since a prior :meth:`snapshot`.

        Histograms are reported as observation-count deltas under
        ``name.count``.  Metrics unchanged since ``before`` are omitted,
        so a query trace shows only what the query actually touched.
        """
        out = {}
        for name, value in self.snapshot().items():
            prev = before.get(name, 0)
            if isinstance(value, dict):           # histogram summary
                prev_count = prev.get("count", 0) if isinstance(prev, dict) \
                    else 0
                if value["count"] != prev_count:
                    out[name + ".count"] = value["count"] - prev_count
            elif value != prev:
                out[name] = value - prev
        return out

    def reset(self) -> None:
        """Zero every metric in place (cached handles stay valid)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
