"""The spatial access-method zoo behind experiment E1 (§V-B, [23]).

Each adapter implements the same secondary-index contract — insert a point
with a primary key, delete, and answer a window query with primary keys —
over a different physical scheme:

* :class:`RTreeSpatialIndex` — LSM R-tree (what AsterixDB ships).
* :class:`ZOrderSpatialIndex` — Morton-linearized LSM B+ tree.
* :class:`HilbertSpatialIndex` — Hilbert-linearized LSM B+ tree.
* :class:`GridSpatialIndex` — static grid over an LSM B+ tree.

The linearized and grid schemes are filter-and-verify: their key ranges
over-approximate the window, so candidates carry their coordinates in the
key and are re-checked.  All adapters report the same stats, which is what
lets the benchmark compare *within-index* work fairly before the end-to-end
record fetch (the part the paper found dominates) is added on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.values import APoint, ARectangle
from zoo.grid import GridScheme
from zoo.linearization import (
    KeySpace,
    hilbert_key,
    hilbert_ranges,
    zorder_key,
    zorder_ranges,
)
from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm import LSMBTree, LSMRTree, MergePolicy


@dataclass
class SpatialQueryStats:
    """Per-query work counters, reset by the caller."""

    candidates: int = 0        # entries produced by the index structure
    verified: int = 0          # entries that actually fall in the window
    ranges_scanned: int = 0    # key ranges (linearized/grid) or 1 (R-tree)

    def reset(self) -> None:
        self.candidates = 0
        self.verified = 0
        self.ranges_scanned = 0


class SpatialIndex:
    """Common contract: point entries keyed by primary key."""

    name = "abstract"

    def insert(self, point: APoint, pk: tuple, lsn: int = 0) -> None:
        raise NotImplementedError

    def delete(self, point: APoint, pk: tuple, lsn: int = 0) -> None:
        raise NotImplementedError

    def query(self, window: ARectangle) -> list[tuple]:
        """Primary keys of points inside the window."""
        raise NotImplementedError

    def flush(self):
        raise NotImplementedError


class RTreeSpatialIndex(SpatialIndex):
    """The LSM R-tree adapter: entries keyed (x, y, pk...)."""

    name = "rtree"

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int = 0):
        self.lsm = LSMRTree(fm, cache, name,
                            memory_budget_bytes=memory_budget_bytes,
                            merge_policy=merge_policy,
                            device_hint=device_hint)
        self.query_stats = SpatialQueryStats()

    @staticmethod
    def _mbr(point: APoint) -> ARectangle:
        return ARectangle(point, point)

    def insert(self, point, pk, lsn=0):
        self.lsm.insert(self._mbr(point), (point.x, point.y, *pk), lsn)

    def delete(self, point, pk, lsn=0):
        self.lsm.delete((point.x, point.y, *pk), lsn)

    def query(self, window):
        self.query_stats.ranges_scanned += 1
        out = []
        for key in self.lsm.search(window):
            self.query_stats.candidates += 1
            # R-trees never produce false positives for point data
            self.query_stats.verified += 1
            out.append(tuple(key[2:]))
        return out

    def flush(self):
        return self.lsm.flush()


class _LinearizedSpatialIndex(SpatialIndex):
    """Shared machinery for Z-order / Hilbert over an LSM B+ tree.

    Keys are (curve_key, x, y, pk...): the coordinates ride along so window
    verification needs no record fetch."""

    def __init__(self, fm: FileManager, cache: BufferCache, name: str,
                 space: KeySpace, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int = 0,
                 max_ranges: int = 64):
        self.space = space
        self.max_ranges = max_ranges
        self.lsm = LSMBTree(fm, cache, name,
                            memory_budget_bytes=memory_budget_bytes,
                            merge_policy=merge_policy,
                            device_hint=device_hint)
        self.query_stats = SpatialQueryStats()

    def _key_of(self, point: APoint) -> int:
        raise NotImplementedError

    def _ranges_of(self, window: ARectangle) -> list[tuple[int, int]]:
        raise NotImplementedError

    def insert(self, point, pk, lsn=0):
        key = (self._key_of(point), point.x, point.y, *pk)
        self.lsm.upsert(key, b"", lsn)

    def delete(self, point, pk, lsn=0):
        key = (self._key_of(point), point.x, point.y, *pk)
        self.lsm.delete(key, lsn)

    def query(self, window):
        out = []
        for lo, hi in self._ranges_of(window):
            self.query_stats.ranges_scanned += 1
            for key, _ in self.lsm.scan((lo,), (hi + 1,),
                                        hi_inclusive=False):
                self.query_stats.candidates += 1
                point = APoint(key[1], key[2])
                if window.contains_point(point):
                    self.query_stats.verified += 1
                    out.append(tuple(key[3:]))
        return out

    def flush(self):
        return self.lsm.flush()


class ZOrderSpatialIndex(_LinearizedSpatialIndex):
    name = "zorder-btree"

    def _key_of(self, point):
        return zorder_key(self.space, point)

    def _ranges_of(self, window):
        return zorder_ranges(self.space, window, self.max_ranges)


class HilbertSpatialIndex(_LinearizedSpatialIndex):
    name = "hilbert-btree"

    def _key_of(self, point):
        return hilbert_key(self.space, point)

    def _ranges_of(self, window):
        return hilbert_ranges(self.space, window, self.max_ranges)


class GridSpatialIndex(SpatialIndex):
    """Static grid over an LSM B+ tree: keys (cell, x, y, pk...)."""

    name = "grid-btree"

    def __init__(self, fm: FileManager, cache: BufferCache, name: str,
                 scheme: GridScheme, *,
                 memory_budget_bytes: int = 256 * 1024,
                 merge_policy: MergePolicy | None = None,
                 device_hint: int = 0):
        self.scheme = scheme
        self.lsm = LSMBTree(fm, cache, name,
                            memory_budget_bytes=memory_budget_bytes,
                            merge_policy=merge_policy,
                            device_hint=device_hint)
        self.query_stats = SpatialQueryStats()

    def insert(self, point, pk, lsn=0):
        key = (self.scheme.cell_of(point), point.x, point.y, *pk)
        self.lsm.upsert(key, b"", lsn)

    def delete(self, point, pk, lsn=0):
        key = (self.scheme.cell_of(point), point.x, point.y, *pk)
        self.lsm.delete(key, lsn)

    def query(self, window):
        out = []
        for lo, hi in self.scheme.cell_runs(window):
            self.query_stats.ranges_scanned += 1
            for key, _ in self.lsm.scan((lo,), (hi + 1,),
                                        hi_inclusive=False):
                self.query_stats.candidates += 1
                point = APoint(key[1], key[2])
                if window.contains_point(point):
                    self.query_stats.verified += 1
                    out.append(tuple(key[3:]))
        return out

    def flush(self):
        return self.lsm.flush()


def make_spatial_index(kind: str, fm, cache, name: str, *,
                       bounds: tuple = (0.0, 0.0, 100.0, 100.0),
                       **kwargs) -> SpatialIndex:
    """Factory used by the E1 benchmark and the dataset layer.

    ``kind`` is one of rtree / zorder / hilbert / grid.  ``bounds`` is the
    (min_x, min_y, max_x, max_y) domain the non-R-tree schemes need
    declared up front — itself one of their practical drawbacks."""
    if kind == "rtree":
        return RTreeSpatialIndex(fm, cache, name, **kwargs)
    if kind == "zorder":
        return ZOrderSpatialIndex(fm, cache, name, KeySpace(*bounds),
                                  **kwargs)
    if kind == "hilbert":
        return HilbertSpatialIndex(fm, cache, name, KeySpace(*bounds),
                                   **kwargs)
    if kind == "grid":
        return GridSpatialIndex(fm, cache, name, GridScheme(*bounds),
                                **kwargs)
    raise ValueError(f"unknown spatial index kind {kind!r}")
