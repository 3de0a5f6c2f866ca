"""Point repository with per-cell weight aggregation.

A store is owned by a single writer; completed stores may be read
concurrently between mutations. Aggregates are maintained incrementally
(constant dictionary work per event).
"""

import math
from dataclasses import dataclass

from .grid import CellIndex, Point, cell_key, check_size


class DuplicateIdError(KeyError):
    """Insert of an id that is already present."""


class UnknownIdError(KeyError):
    """Delete or update of an id that is not present."""


@dataclass(slots=True)
class CellAggregate:
    weight: float  # running sum of member point weights
    count: int  # member points; always >= 1 while the cell is stored
    index: CellIndex


class PointStore:
    """Maps point ids to points and nonempty grid cells to aggregates.

    Cells with no remaining points are evicted, so the number of live
    cells never exceeds the number of live points.
    """

    def __init__(self, cell_size: float):
        check_size(cell_size, "cell size")
        self.cell_size = float(cell_size)
        self.points: dict[object, Point] = {}
        self.cells: dict[int, CellAggregate] = {}

    def __len__(self) -> int:
        return len(self.points)

    def _locate(self, x: float, y: float) -> tuple[int, int, int]:
        # grid.cell_index without its argument checks, which insert has
        # already made for the hot path
        r = self.cell_size
        try:
            a = math.floor(x / r)
            b = math.floor(y / r)
        except OverflowError:
            raise ValueError(f"cell index of ({x!r}, {y!r}) at cell size {r!r} is not finite") from None
        return a, b, cell_key(a, b)

    def insert(self, p: Point) -> tuple[int, float]:
        """Add a point; returns (cell key, new cell weight)."""
        if p.id in self.points:
            raise DuplicateIdError(f"point id {p.id!r} already present")
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ValueError(f"coordinates must be finite, got ({p.x!r}, {p.y!r})")
        w = p.w
        if type(w) is bool or not (isinstance(w, (int, float)) and math.isfinite(w) and w >= 0):
            raise ValueError(f"weight must be finite and >= 0, got {w!r}")
        a, b, key = self._locate(p.x, p.y)
        agg = self.cells.get(key)
        if agg is None:
            self.cells[key] = CellAggregate(w, 1, (a, b))
            new_weight = w
        else:
            agg.weight += w
            agg.count += 1
            new_weight = agg.weight
        self.points[p.id] = p
        return key, new_weight

    def delete(self, pid: object) -> tuple[int, float]:
        """Remove a point; returns (cell key, new cell weight).

        The reported weight is 0.0 when the point was the cell's last and
        the cell is evicted.
        """
        p = self.points.get(pid)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        del self.points[pid]
        _, _, key = self._locate(p.x, p.y)
        agg = self.cells[key]
        if agg.count == 1:
            del self.cells[key]
            return key, 0.0
        agg.count -= 1
        agg.weight -= p.w
        return key, agg.weight

    def update_weight(self, pid: object, w_new: float) -> tuple[int, float]:
        """Replace a point's weight; returns (cell key, delta = new - old)."""
        p = self.points.get(pid)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        if type(w_new) is bool or not (
            isinstance(w_new, (int, float)) and math.isfinite(w_new) and w_new >= 0
        ):
            raise ValueError(f"weight must be finite and >= 0, got {w_new!r}")
        delta = w_new - p.w
        _, _, key = self._locate(p.x, p.y)
        self.cells[key].weight += delta
        p.w = w_new
        return key, delta

    def cell_weight(self, key: int) -> float:
        """Aggregate weight of a cell, 0.0 for absent cells."""
        agg = self.cells.get(key)
        return 0.0 if agg is None else agg.weight
