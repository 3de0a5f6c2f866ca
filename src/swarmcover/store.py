"""Point repository with per-cell weight aggregation.

A store is owned by a single writer; completed stores may be read
concurrently between mutations. Aggregates are maintained incrementally
(constant dictionary work per event).
"""

import math
import sys
from dataclasses import dataclass

from .grid import Point, cell_key, check_size

_FLOAT_MAX = sys.float_info.max


def _float_weight(w: object) -> float:
    """``w`` (an int or float, not a bool, in [0, max float]) as a float, else ValueError.
    A chained compare: math.isfinite raises OverflowError for an int past the float range."""
    if type(w) is bool or not (isinstance(w, (int, float)) and 0.0 <= w <= _FLOAT_MAX):
        raise ValueError(f"weight must be finite and >= 0, got {w!r}")
    return float(w)


class DuplicateIdError(KeyError):
    """Insert of an id that is already present."""


class UnknownIdError(KeyError):
    """Delete or update of an id that is not present."""


@dataclass(slots=True)
class CellAggregate:
    weight: float  # running sum of member point weights, each taken as a float
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

    def _locate(self, x: float, y: float) -> int:
        # the key of grid.cell_index, whose cell size check __init__ made once:
        # a nan, inf, None, str or huge int coordinate has no cell index
        r = self.cell_size
        try:
            a = math.floor(x / r)
            b = math.floor(y / r)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"coordinates ({x!r}, {y!r}) have no cell at cell size {r!r}") from None
        return cell_key(a, b)

    def insert(self, p: Point) -> tuple[int, float, float]:
        """Add a point; returns (cell key, old cell weight, new cell weight),
        the old weight 0.0 for a new cell."""
        if p.id in self.points:
            raise DuplicateIdError(f"point id {p.id!r} already present")
        if type(w := p.w) is not float or not 0.0 <= w <= _FLOAT_MAX:
            w = _float_weight(w)
        key = self._locate(p.x, p.y)
        agg = self.cells.get(key)
        if agg is None:
            old, new = 0.0, w
            self.cells[key] = CellAggregate(w, 1)
        else:
            old = agg.weight
            new = old + w
            if new == math.inf:  # an inf cell weight would never come back down
                raise ValueError(f"cell weight {old!r} + {w!r} overflows the float range")
            agg.weight = new
            agg.count += 1
        self.points[p.id] = p
        return key, old, new

    def delete(self, pid: object) -> tuple[int, float, float]:
        """Remove a point; returns (cell key, old cell weight, new cell weight).

        The new weight is 0.0 when the point was the cell's last and the
        cell is evicted.
        """
        p = self.points.get(pid)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        del self.points[pid]
        key = self._locate(p.x, p.y)
        agg = self.cells[key]
        old = agg.weight
        if agg.count == 1:
            del self.cells[key]
            return key, old, 0.0
        agg.count -= 1
        agg.weight = old - p.w
        return key, old, agg.weight

    def update_weight(self, pid: object, w_new: float) -> tuple[int, float, float]:
        """Replace a point's weight; returns (cell key, old cell weight, new
        cell weight). The stored ``Point`` is replaced, never mutated."""
        p = self.points.get(pid)
        if p is None:
            raise UnknownIdError(f"point id {pid!r} not present")
        if type(w_new) is not float or not 0.0 <= w_new <= _FLOAT_MAX:
            w_new = _float_weight(w_new)
        key = self._locate(p.x, p.y)
        agg = self.cells[key]
        old = agg.weight
        delta = w_new - p.w
        new = old + delta
        if new == math.inf:
            raise ValueError(f"cell weight {old!r} + {delta!r} overflows the float range")
        agg.weight = new
        self.points[pid] = Point(p.id, p.x, p.y, w_new)
        return key, old, new

