"""Point repository with per-cell weight aggregation.

A store is owned by a single writer; completed stores may be read
concurrently between mutations. Aggregates are maintained incrementally
(constant dictionary work per event).
"""

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

import numpy as np

from .grid import _FLOAT_MAX, Point, _float_weight, cell_key, check_size

# cell indices below this in magnitude fold and pair into int64 Cantor keys:
# fold(a) + fold(b) < 2**31, so (s + 1) * s < 2**62
_BULK_INDEX_LIMIT = 2**29


class DuplicateIdError(KeyError):
    """Insert of an id that is already present."""


class UnknownIdError(KeyError):
    """Delete or update of an id that is not present."""


@dataclass(slots=True)
class CellAggregate:
    weight: float  # sum of member point weights as floats, written only by PointStore._step
    count: int  # member points; always >= 1 while the cell is stored


def _float_column(pts, field: str) -> np.ndarray | None:
    """Attribute ``field`` of every point as a float array, or None unless
    each one is exactly a float."""
    get = attrgetter(field)
    try:
        if {*map(type, map(get, pts))} != {float}:
            return None
    except AttributeError:  # a point without this field
        return None
    return np.fromiter(map(get, pts), float, len(pts))


def _folded_indices(pts, field: str, r: float) -> np.ndarray | None:
    """fold_signed(floor(p.<field> / r)) of every point as int64, the folded
    cell index of _step; None unless every field is exactly a float whose
    cell index is under _BULK_INDEX_LIMIT in magnitude."""
    c = _float_column(pts, field)
    if c is None:
        return None
    with np.errstate(over="ignore"):
        np.floor(np.divide(c, r, out=c), out=c)
    if not -_BULK_INDEX_LIMIT <= c.min() <= c.max() < _BULK_INDEX_LIMIT:  # nan and inf fail too
        return None
    a = c.astype(np.int64)
    sign = a >> 63  # fold_signed as a zigzag: 2a for a >= 0, -2a - 1 below
    a <<= 1
    a ^= sign
    return a


def _bulk_cells(pts, r: float) -> dict[int, CellAggregate] | None:
    """The cells that inserting ``pts`` in order leaves in an empty store of
    cell size r, computed in numpy; None for input the pass cannot vouch
    for: a field that is not exactly a float, a weight outside [0, max
    float], a cell index of _BULK_INDEX_LIMIT or more in magnitude (or none:
    a nan or inf coordinate), or a cell weight that overflows."""
    n = len(pts)
    if (fa := _folded_indices(pts, "x", r)) is None or (fb := _folded_indices(pts, "y", r)) is None:
        return None
    # the Cantor pairing of grid.cell_key, in place: (s + 1) * s // 2 + fb
    fa += fb
    keys = fa + 1
    keys *= fa
    keys >>= 1
    keys += fb
    del fa, fb  # alive through np.unique, they would raise the peak by about 30%

    # cells in order of first appearance, found by minimum.at: return_index
    # would make np.unique sort stably, about 3x slower at n = 1e6
    cell_keys, cell_of = np.unique(keys, return_inverse=True)
    w = _float_column(pts, "w")
    if w is None or not 0.0 <= w.min() <= w.max() <= _FLOAT_MAX:  # a nan fails every compare
        return None
    # add.at adds in input order from -0.0, the additive identity, so each
    # sum is the running old + w of insert, the sign of a zero included
    sums = np.full(len(cell_keys), -0.0)
    with np.errstate(over="ignore"):
        np.add.at(sums, cell_of, w)
    if sums.max() == math.inf:  # weights are >= 0, so some running sum overflowed
        return None
    counts = np.bincount(cell_of, minlength=len(cell_keys))
    first = np.full(len(cell_keys), n)
    np.minimum.at(first, cell_of, np.arange(n))
    order = np.argsort(first)
    return dict(zip(cell_keys[order].tolist(),
                    map(CellAggregate, sums[order].tolist(), counts[order].tolist())))


class PointStore:
    """Maps point ids to points and nonempty grid cells to aggregates.

    Cells with no remaining points are evicted, so the number of live
    cells never exceeds the number of live points.

    ``points`` are loaded as if inserted one by one, and raise as
    :meth:`insert` would; a load that can be vouched for runs as one numpy
    pass (see :meth:`_bulk_load`).
    """

    def __init__(self, cell_size: float, points: Iterable[Point] = ()):
        check_size(cell_size, "cell size")
        self.cell_size = float(cell_size)
        self.points: dict[object, Point] = {}
        self.cells: dict[int, CellAggregate] = {}
        if not isinstance(points, (list, tuple)):
            points = list(points)
        if points and not self._bulk_load(points):
            for p in points:
                self.insert(p)

    def _bulk_load(self, pts: list[Point] | tuple[Point, ...]) -> bool:
        """Fill this empty store with ``pts`` in one vectorized pass and return
        True, leaving bit for bit the state of inserting them in order; or
        return False with nothing written, for input the pass cannot vouch
        for: that of _bulk_cells, or a duplicate or unhashable id."""
        # the id dict is built once the arrays are freed, to keep the peak down
        if (cells := _bulk_cells(pts, self.cell_size)) is None:
            return False
        try:
            points = dict(zip(map(attrgetter("id"), pts), pts))
        except (AttributeError, TypeError):  # a point without an id, or an unhashable id
            return False
        if len(points) != len(pts):
            return False
        self.points, self.cells = points, cells
        return True

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
