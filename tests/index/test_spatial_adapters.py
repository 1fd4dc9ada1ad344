"""Tests for the spatial access-method adapters (E1's contestants)."""

import random

import pytest

from repro.adm import APoint, ARectangle
from repro.storage import BufferCache, FileManager, IODevice
from repro.storage.lsm import NoMergePolicy
from zoo import GridScheme, make_spatial_index

KINDS = ["rtree", "zorder", "hilbert", "grid"]
BOUNDS = (0.0, 0.0, 100.0, 100.0)


@pytest.fixture
def stack(tmp_path):
    fm = FileManager([IODevice(0, str(tmp_path / "dev"))], page_size=2048)
    cache = BufferCache(fm, num_pages=128)
    yield fm, cache
    fm.close()


def build(kind, fm, cache, points):
    idx = make_spatial_index(kind, fm, cache, f"idx_{kind}", bounds=BOUNDS,
                             merge_policy=NoMergePolicy())
    for pk, (x, y) in enumerate(points):
        idx.insert(APoint(x, y), (pk,))
    return idx


def reference(points, window):
    return sorted(
        (pk,) for pk, (x, y) in enumerate(points)
        if window.contains_point(APoint(x, y))
    )


class TestGridScheme:
    def test_cell_of_corners(self):
        g = GridScheme(0, 0, 10, 10, cells_per_side=10)
        assert g.cell_of(APoint(0.5, 0.5)) == 0
        assert g.cell_of(APoint(9.5, 9.5)) == 99

    def test_cells_overlapping(self):
        g = GridScheme(0, 0, 10, 10, cells_per_side=10)
        window = ARectangle(APoint(1.5, 1.5), APoint(3.5, 2.5))
        cells = g.cells_overlapping(window)
        assert set(cells) == {11, 12, 13, 21, 22, 23}

    def test_cell_runs_row_contiguous(self):
        g = GridScheme(0, 0, 10, 10, cells_per_side=10)
        window = ARectangle(APoint(1.5, 1.5), APoint(3.5, 2.5))
        assert g.cell_runs(window) == [(11, 13), (21, 23)]


@pytest.mark.parametrize("kind", KINDS)
class TestAdapterContract:
    def test_query_matches_reference(self, stack, kind):
        fm, cache = stack
        rng = random.Random(13)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100))
                  for _ in range(800)]
        idx = build(kind, fm, cache, points)
        for seed in range(4):
            r = random.Random(seed)
            x0, y0 = r.uniform(0, 80), r.uniform(0, 80)
            window = ARectangle(APoint(x0, y0),
                                APoint(x0 + 12, y0 + 12))
            assert sorted(idx.query(window)) == reference(points, window)

    def test_query_after_flush(self, stack, kind):
        fm, cache = stack
        points = [(float(i), float(i)) for i in range(60)]
        idx = build(kind, fm, cache, points)
        idx.flush()
        window = ARectangle(APoint(10, 10), APoint(20, 20))
        assert sorted(idx.query(window)) == reference(points, window)

    def test_delete(self, stack, kind):
        fm, cache = stack
        points = [(5.0, 5.0), (6.0, 6.0)]
        idx = build(kind, fm, cache, points)
        idx.delete(APoint(5.0, 5.0), (0,))
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        assert sorted(idx.query(window)) == [(1,)]

    def test_delete_across_flush(self, stack, kind):
        fm, cache = stack
        points = [(5.0, 5.0), (6.0, 6.0)]
        idx = build(kind, fm, cache, points)
        idx.flush()
        idx.delete(APoint(6.0, 6.0), (1,))
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        assert sorted(idx.query(window)) == [(0,)]

    def test_stats_accumulate(self, stack, kind):
        fm, cache = stack
        points = [(float(i % 10), float(i // 10)) for i in range(100)]
        idx = build(kind, fm, cache, points)
        idx.query_stats.reset()
        window = ARectangle(APoint(2, 2), APoint(5, 5))
        got = idx.query(window)
        assert idx.query_stats.verified == len(got)
        assert idx.query_stats.candidates >= idx.query_stats.verified
        assert idx.query_stats.ranges_scanned >= 1


class TestFilterVerifyBehaviour:
    def test_linearized_schemes_produce_false_candidates(self, stack):
        """Z-order/grid over-approximate: candidates >= verified, strictly
        so for windows that cut cells (this is their inherent verify cost,
        which the E1 bench reports)."""
        fm, cache = stack
        rng = random.Random(2)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100))
                  for _ in range(2000)]
        idx = build("grid", fm, cache, points)
        idx.query_stats.reset()
        window = ARectangle(APoint(13.3, 17.7), APoint(26.1, 30.9))
        idx.query(window)
        assert idx.query_stats.candidates > idx.query_stats.verified

    def test_unknown_kind_rejected(self, stack):
        fm, cache = stack
        with pytest.raises(ValueError):
            make_spatial_index("kdtree", fm, cache, "x")
