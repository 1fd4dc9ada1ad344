"""Space-filling-curve linearizations of 2D points.

The §V-B study ([23]) compared the LSM R-tree against "linearizing 2D data
(e.g., via Hilbert-ordering or Z-ordering) and using LSM-based B-trees on
the transformed spatial keys".  These are those transforms: each maps a
point in a bounded 2D domain to a single integer key such that spatial
locality is (approximately) preserved, turning any ordered index into a
spatial one.

Both curves quantize each coordinate to ``bits`` bits over a declared
bounding box and interleave them:

* Z-order (Morton): plain bit interleaving — cheap, but the curve makes
  long jumps at power-of-two boundaries.
* Hilbert: the rotation/reflection recurrence — better locality (adjacent
  curve positions are always adjacent cells), costlier to compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.values import APoint, ARectangle
from repro.common.errors import InvalidArgumentError


@dataclass(frozen=True)
class KeySpace:
    """A bounded 2D domain quantized to 2^bits x 2^bits cells."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    bits: int = 16

    def __post_init__(self):
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise InvalidArgumentError("empty key space")
        if not 1 <= self.bits <= 30:
            raise InvalidArgumentError("bits must be in [1, 30]")

    @property
    def side(self) -> int:
        return 1 << self.bits

    def quantize(self, x: float, y: float) -> tuple[int, int]:
        """Clamp and quantize a coordinate pair to cell indices."""
        fx = (x - self.min_x) / (self.max_x - self.min_x)
        fy = (y - self.min_y) / (self.max_y - self.min_y)
        qx = min(self.side - 1, max(0, int(fx * self.side)))
        qy = min(self.side - 1, max(0, int(fy * self.side)))
        return qx, qy

    def cell_ranges_overlapping(self, window: ARectangle):
        """Quantized index ranges (x0..x1, y0..y1) covering a window."""
        x0, y0 = self.quantize(window.bottom_left.x, window.bottom_left.y)
        x1, y1 = self.quantize(window.top_right.x, window.top_right.y)
        return x0, y0, x1, y1


def zorder_key(space: KeySpace, point: APoint) -> int:
    """Morton code of a point: bit-interleave the quantized coordinates."""
    qx, qy = space.quantize(point.x, point.y)
    return _interleave(qx) | (_interleave(qy) << 1)


def _interleave(v: int) -> int:
    """Spread the bits of v so they occupy even positions."""
    result = 0
    bit = 0
    while v:
        result |= (v & 1) << (2 * bit)
        v >>= 1
        bit += 1
    return result


def hilbert_key(space: KeySpace, point: APoint) -> int:
    """Hilbert curve index of a point (the classic xy2d transform)."""
    qx, qy = space.quantize(point.x, point.y)
    rx = ry = 0
    d = 0
    s = space.side // 2
    x, y = qx, qy
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def zorder_ranges(space: KeySpace, window: ARectangle,
                  max_ranges: int = 64) -> list[tuple[int, int]]:
    """Decompose a query window into Z-order key ranges.

    Recursively subdivides the quad-tree implied by the Morton code: a quad
    fully inside the window contributes one contiguous range; partial quads
    recurse.  The result is then coalesced down to at most ``max_ranges``
    ranges by merging across the smallest key gaps — gap keys become false
    candidates that the caller's verify step filters (the filter-and-verify
    step every linearized scheme needs)."""
    x0, y0, x1, y1 = space.cell_ranges_overlapping(window)
    ranges: list[tuple[int, int]] = []

    def quad_intersects(qx, qy, size):
        return not (qx > x1 or qx + size - 1 < x0
                    or qy > y1 or qy + size - 1 < y0)

    def quad_inside(qx, qy, size):
        return (x0 <= qx and qx + size - 1 <= x1
                and y0 <= qy and qy + size - 1 <= y1)

    def key_of(qx, qy):
        return _interleave(qx) | (_interleave(qy) << 1)

    stack = [(0, 0, space.side)]
    work_cap = [8 * max_ranges]   # bounds decomposition effort
    while stack:
        qx, qy, size = stack.pop()
        if not quad_intersects(qx, qy, size):
            continue
        lo = key_of(qx, qy)
        hi = lo + size * size - 1
        if quad_inside(qx, qy, size) or size == 1 or work_cap[0] <= 1:
            ranges.append((lo, hi))
            work_cap[0] -= 1
            continue
        half = size // 2
        for dx in (0, half):
            for dy in (0, half):
                stack.append((qx + dx, qy + dy, half))
    return _coalesce(ranges, max_ranges)


def hilbert_ranges(space: KeySpace, window: ARectangle,
                   max_ranges: int = 64) -> list[tuple[int, int]]:
    """Decompose a query window into Hilbert key ranges.

    Same quad-tree subdivision as :func:`zorder_ranges`, but quads map to
    Hilbert index intervals via the curve recurrence (every aligned quad of
    size s x s is a contiguous Hilbert segment of length s*s)."""
    x0, y0, x1, y1 = space.cell_ranges_overlapping(window)
    ranges: list[tuple[int, int]] = []
    work_cap = [8 * max_ranges]

    def recurse(qx, qy, size, base, corner_x, corner_y, flip):
        """(qx, qy, size): the quad; base: Hilbert index of the quad's
        start; (corner_x, corner_y, flip) encode the curve orientation."""
        if qx > x1 or qx + size - 1 < x0 or qy > y1 or qy + size - 1 < y0:
            return
        inside = (x0 <= qx and qx + size - 1 <= x1
                  and y0 <= qy and qy + size - 1 <= y1)
        if inside or size == 1 or work_cap[0] <= 1:
            ranges.append((base, base + size * size - 1))
            work_cap[0] -= 1
            return
        half = size // 2
        quarter = half * half
        # Visit sub-quads in Hilbert order for this orientation.  We use the
        # standard table for the 4 orientations of the 2D Hilbert curve.
        for i in range(4):
            sub_x, sub_y, nx, ny, nflip = _HILBERT_SUBQUAD[
                (corner_x, corner_y, flip)
            ][i]
            recurse(qx + sub_x * half, qy + sub_y * half, half,
                    base + i * quarter, nx, ny, nflip)

    recurse(0, 0, space.side, 0, 0, 0, False)
    return _coalesce(ranges, max_ranges)


def _coalesce(ranges: list[tuple[int, int]],
              max_ranges: int) -> list[tuple[int, int]]:
    """Sort, merge touching ranges, then merge across the smallest gaps
    until at most ``max_ranges`` remain."""
    ranges.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    while len(merged) > max_ranges:
        gaps = [
            (merged[i + 1][0] - merged[i][1], i)
            for i in range(len(merged) - 1)
        ]
        _, i = min(gaps)
        merged[i] = (merged[i][0], merged[i + 1][1])
        del merged[i + 1]
    return merged


# Orientation table for the 2D Hilbert curve.  Key: (corner_x, corner_y,
# flip) names one of the 4 orientations; value: for each of the 4 curve
# steps, (sub-quad x, sub-quad y, child orientation).  Derived from the
# classic "U" shape and its rotations; validated against hilbert_key by the
# test suite (every point's key must land inside its quad's range).
_HILBERT_SUBQUAD = {
    (0, 0, False): [
        (0, 0, 0, 0, True), (0, 1, 0, 0, False),
        (1, 1, 0, 0, False), (1, 0, 1, 1, True),
    ],
    (0, 0, True): [
        (0, 0, 0, 0, False), (1, 0, 0, 0, True),
        (1, 1, 0, 0, True), (0, 1, 1, 1, False),
    ],
    (1, 1, False): [
        (1, 1, 1, 1, True), (1, 0, 1, 1, False),
        (0, 0, 1, 1, False), (0, 1, 0, 0, True),
    ],
    (1, 1, True): [
        (1, 1, 1, 1, False), (0, 1, 1, 1, True),
        (0, 0, 1, 1, True), (1, 0, 0, 0, False),
    ],
}
