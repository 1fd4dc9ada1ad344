"""A static grid spatial scheme (the third §V-B competitor).

"A third argued in a visit to UCI that a grid-based approach would probably
be better" — this module is that approach: partition the bounded domain into
fixed cells and key each point by its cell id.  Stored over an LSM B+ tree
keyed ``(cell_id, x, y, pk...)``, a window query enumerates the overlapping
cells and range-scans each cell's contiguous key run, verifying candidates
against the window (boundary cells contain non-qualifying points).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.values import APoint, ARectangle
from repro.common.errors import InvalidArgumentError


@dataclass(frozen=True)
class GridScheme:
    """A uniform grid over a bounded 2D domain."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    cells_per_side: int = 64

    def __post_init__(self):
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise InvalidArgumentError("empty grid domain")
        if self.cells_per_side < 1:
            raise InvalidArgumentError("need at least one cell per side")

    def cell_of(self, point: APoint) -> int:
        """Row-major cell id of a point (clamped to the domain)."""
        n = self.cells_per_side
        fx = (point.x - self.min_x) / (self.max_x - self.min_x)
        fy = (point.y - self.min_y) / (self.max_y - self.min_y)
        cx = min(n - 1, max(0, int(fx * n)))
        cy = min(n - 1, max(0, int(fy * n)))
        return cy * n + cx

    def cells_overlapping(self, window: ARectangle) -> list[int]:
        """Row-major ids of all cells intersecting a window."""
        n = self.cells_per_side
        c0 = self.cell_of(window.bottom_left)
        c1 = self.cell_of(window.top_right)
        x0, y0 = c0 % n, c0 // n
        x1, y1 = c1 % n, c1 // n
        return [
            cy * n + cx
            for cy in range(y0, y1 + 1)
            for cx in range(x0, x1 + 1)
        ]

    def cell_runs(self, window: ARectangle) -> list[tuple[int, int]]:
        """Contiguous (lo_cell, hi_cell) runs covering a window — one run
        per grid row, since row-major ids are contiguous within a row."""
        n = self.cells_per_side
        c0 = self.cell_of(window.bottom_left)
        c1 = self.cell_of(window.top_right)
        x0, y0 = c0 % n, c0 // n
        x1, y1 = c1 % n, c1 // n
        return [(cy * n + x0, cy * n + x1) for cy in range(y0, y1 + 1)]
