"""Tests for Z-order/Hilbert linearizations and their range decompositions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import APoint, ARectangle
from repro.common.errors import InvalidArgumentError
from zoo import (
    KeySpace,
    hilbert_key,
    hilbert_ranges,
    zorder_key,
    zorder_ranges,
)

SPACE = KeySpace(0, 0, 64, 64, bits=6)


class TestKeySpace:
    def test_quantize_corners(self):
        assert SPACE.quantize(0, 0) == (0, 0)
        assert SPACE.quantize(63.999, 63.999) == (63, 63)

    def test_quantize_clamps(self):
        assert SPACE.quantize(-5, 200) == (0, 63)

    def test_rejects_empty_space(self):
        with pytest.raises(InvalidArgumentError):
            KeySpace(0, 0, 0, 10)

    def test_rejects_bad_bits(self):
        with pytest.raises(InvalidArgumentError):
            KeySpace(0, 0, 1, 1, bits=0)


class TestZOrder:
    def test_bijective_on_grid(self):
        space = KeySpace(0, 0, 8, 8, bits=3)
        keys = {
            zorder_key(space, APoint(x + 0.5, y + 0.5))
            for x in range(8) for y in range(8)
        }
        assert len(keys) == 64
        assert min(keys) == 0 and max(keys) == 63

    def test_origin_is_zero(self):
        assert zorder_key(SPACE, APoint(0.1, 0.1)) == 0

    def test_locality_neighbors_close_mostly(self):
        # Morton codes of x-adjacent cells differ little within a quad
        space = KeySpace(0, 0, 4, 4, bits=2)
        k0 = zorder_key(space, APoint(0.5, 0.5))
        k1 = zorder_key(space, APoint(1.5, 0.5))
        assert abs(k1 - k0) == 1


class TestHilbert:
    def test_bijective_on_grid(self):
        space = KeySpace(0, 0, 16, 16, bits=4)
        keys = {
            hilbert_key(space, APoint(x + 0.5, y + 0.5))
            for x in range(16) for y in range(16)
        }
        assert len(keys) == 256

    def test_curve_is_continuous(self):
        """Consecutive Hilbert indexes are always adjacent cells — the
        locality property Z-order lacks."""
        space = KeySpace(0, 0, 16, 16, bits=4)
        position = {}
        for x in range(16):
            for y in range(16):
                position[hilbert_key(space, APoint(x + 0.5, y + 0.5))] = (x, y)
        for d in range(255):
            (x0, y0), (x1, y1) = position[d], position[d + 1]
            assert abs(x0 - x1) + abs(y0 - y1) == 1


def random_window(rng, max_side=14.0):
    x0, y0 = rng.uniform(0, 50), rng.uniform(0, 50)
    return ARectangle(
        APoint(x0, y0),
        APoint(x0 + rng.uniform(0.5, max_side),
               y0 + rng.uniform(0.5, max_side)),
    )


class TestRangeDecomposition:
    @pytest.mark.parametrize("key_fn,ranges_fn", [
        (zorder_key, zorder_ranges),
        (hilbert_key, hilbert_ranges),
    ])
    def test_windows_covered(self, key_fn, ranges_fn):
        """Every point inside a window maps into one of its key ranges."""
        rng = random.Random(11)
        for _ in range(50):
            window = random_window(rng)
            ranges = ranges_fn(SPACE, window, max_ranges=128)
            for _ in range(20):
                p = APoint(
                    rng.uniform(window.bottom_left.x, window.top_right.x),
                    rng.uniform(window.bottom_left.y, window.top_right.y),
                )
                k = key_fn(SPACE, p)
                assert any(lo <= k <= hi for lo, hi in ranges)

    @pytest.mark.parametrize("ranges_fn", [zorder_ranges, hilbert_ranges])
    def test_budget_respected(self, ranges_fn):
        rng = random.Random(3)
        for _ in range(20):
            window = random_window(rng, max_side=30)
            assert len(ranges_fn(SPACE, window, max_ranges=8)) <= 8

    @pytest.mark.parametrize("ranges_fn", [zorder_ranges, hilbert_ranges])
    def test_ranges_sorted_disjoint(self, ranges_fn):
        rng = random.Random(5)
        for _ in range(20):
            ranges = ranges_fn(SPACE, random_window(rng), max_ranges=64)
            for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
                assert hi1 < lo2

    def test_hilbert_fewer_or_equal_false_area(self):
        """Hilbert's better locality shows up as no-worse range counts for
        typical windows (a soft property; checked on aggregate)."""
        rng = random.Random(7)
        z_total = h_total = 0
        for _ in range(40):
            window = random_window(rng)
            z_total += len(zorder_ranges(SPACE, window, max_ranges=1000))
            h_total += len(hilbert_ranges(SPACE, window, max_ranges=1000))
        assert h_total <= z_total * 1.2


@given(
    x=st.floats(min_value=0, max_value=63.9),
    y=st.floats(min_value=0, max_value=63.9),
)
@settings(max_examples=200)
def test_keys_in_domain(x, y):
    p = APoint(x, y)
    assert 0 <= zorder_key(SPACE, p) < SPACE.side ** 2
    assert 0 <= hilbert_key(SPACE, p) < SPACE.side ** 2
