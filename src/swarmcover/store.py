"""Point repository with per-cell weight aggregation.

A store is owned by a single writer; completed stores may be read
concurrently between mutations. Aggregates are maintained incrementally
(constant dictionary work per event).
"""

import math
from dataclasses import dataclass

from .grid import _FLOAT_MAX, Point, _float_weight, cell_key, check_size


class DuplicateIdError(KeyError):
    """Insert of an id that is already present."""


class UnknownIdError(KeyError):
    """Delete or update of an id that is not present."""


@dataclass(slots=True)
class CellAggregate:
    weight: float  # sum of member point weights as floats, written only by PointStore._step
    count: int  # member points; always >= 1 while the cell is stored


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

    def _step(self, x: float, y: float, dw: float, dn: int) -> tuple[int, float, float]:
        """Add ``dw`` to the weight and ``dn`` to the count of the cell of
        (x, y); returns (cell key, old cell weight, new cell weight). Only an
        insert (dn = 1) meets a cell that is not stored; it takes ``dw`` as
        its weight. A cell left with no points is evicted at new weight 0.0.
        Nothing is written if (x, y) has no cell or the weight overflows."""
        # the key of grid.cell_index, whose cell size check __init__ made once:
        # a nan, inf, None, str or huge int coordinate has no cell index
        r = self.cell_size
        try:
            key = cell_key(math.floor(x / r), math.floor(y / r))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"coordinates ({x!r}, {y!r}) have no cell at cell size {r!r}") from None
        agg = self.cells.get(key)
        if agg is None:
            self.cells[key] = CellAggregate(dw, 1)
            return key, 0.0, dw
        old = agg.weight
        if not (count := agg.count + dn):
            del self.cells[key]
            return key, old, 0.0
        new = old + dw
        if new == math.inf:  # an inf cell weight would never come back down
            raise ValueError(f"cell weight {old!r} + {dw!r} overflows the float range")
        agg.weight = new
        agg.count = count
        return key, old, new

    def insert(self, p: Point) -> tuple[int, float, float]:
        """Add a point; returns (cell key, old cell weight, new cell weight),
        the old weight 0.0 for a new cell."""
        if p.id in self.points:
            raise DuplicateIdError(f"point id {p.id!r} already present")
        if type(w := p.w) is not float or not 0.0 <= w <= _FLOAT_MAX:
            w = _float_weight(w)
        step = self._step(p.x, p.y, w, 1)
        self.points[p.id] = p
        return step

    def delete(self, pid: object) -> tuple[int, float, float]:
        """Remove a point; returns (cell key, old cell weight, new cell weight).

        The new weight is 0.0 when the point was the cell's last and the
        cell is evicted.
        """
        p = self.points.pop(pid, None)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        return self._step(p.x, p.y, -p.w, -1)

    def update_weight(self, pid: object, w_new: float) -> tuple[int, float, float]:
        """Replace a point's weight; returns (cell key, old cell weight, new
        cell weight). The stored ``Point`` is replaced, never mutated."""
        p = self.points.get(pid)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        if type(w_new) is not float or not 0.0 <= w_new <= _FLOAT_MAX:
            w_new = _float_weight(w_new)
        step = self._step(p.x, p.y, w_new - p.w, 0)
        self.points[pid] = Point(p.id, p.x, p.y, w_new)
        return step
