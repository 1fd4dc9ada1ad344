"""Experiment-only structures: the spatial access-method zoo and key
linearizations (E1), and Linear Hashing (E2, ``zoo.linear_hash``)."""

from zoo.grid import GridScheme
from zoo.linearization import (
    KeySpace,
    hilbert_key,
    hilbert_ranges,
    zorder_key,
    zorder_ranges,
)
from zoo.spatial_adapters import (
    GridSpatialIndex,
    HilbertSpatialIndex,
    RTreeSpatialIndex,
    SpatialIndex,
    SpatialQueryStats,
    ZOrderSpatialIndex,
    make_spatial_index,
)

__all__ = [
    "GridScheme",
    "GridSpatialIndex",
    "HilbertSpatialIndex",
    "KeySpace",
    "RTreeSpatialIndex",
    "SpatialIndex",
    "SpatialQueryStats",
    "ZOrderSpatialIndex",
    "hilbert_key",
    "hilbert_ranges",
    "make_spatial_index",
    "zorder_key",
    "zorder_ranges",
]
