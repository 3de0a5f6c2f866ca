"""Static placement: assign drones to the heaviest grid cells.

A placement is one cell key per drone (None for a parked drone) plus the
covered weight; :func:`cell_geometry` derives a drone's shape from its key
alone. Pure functions of the store contents; safe to call concurrently on
a store that is not being mutated.
"""

import math
from dataclasses import dataclass, replace
from itertools import compress
from operator import attrgetter

import numpy as np

from .grid import DISK, SQUARE, GridConfig, cell_center, cell_key_to_index
from .store import PointStore

# Worst-case fraction of the optimum the heaviest-cells pick always keeps:
# an optimal square meets at most 4 cells of the matching grid, an optimal
# disk at most 7 cells when the cell size is sqrt(2) * r_cov.
GUARANTEE = {SQUARE: 0.25, DISK: 1.0 / 7.0}


@dataclass(frozen=True)
class SquareGeometry:
    min_x: float
    min_y: float
    side: float


@dataclass(frozen=True)
class DiskGeometry:
    center_x: float
    center_y: float
    radius: float


@dataclass(frozen=True)
class Placement:
    cells: tuple[int | None, ...]  # drone i covers cell key cells[i]; None when parked
    covered_weight: float
    config: GridConfig


def cell_geometry(key: int, config: GridConfig) -> SquareGeometry | DiskGeometry:
    """Shape a drone materializes on the cell with key ``key``: the cell
    itself for squares, the circumscribing disk for disks."""
    r = config.cell_size
    index = cell_key_to_index(key)
    if config.shape == SQUARE:
        a, b = index
        return SquareGeometry(a * r, b * r, r)
    cx, cy = cell_center(index, r)
    return DiskGeometry(cx, cy, config.r_cov)


def rank_cells(store: PointStore, k: int | None = None) -> list[tuple[int, float]]:
    """The k heaviest live cells (all when k is None) as (key, weight), heaviest
    first, key ascending on ties. O(C + k' log k') for C cells: np.partition finds
    the k-th heaviest weight as a cut, and only the k' cells at or above it are sorted."""
    n = len(cells := store.cells)
    k = n if k is None else min(k, n)
    if k <= 0:
        return []
    weights = np.fromiter(map(attrgetter("weight"), cells.values()), float, n)
    at_or_above_cut = (weights >= np.partition(weights, n - k)[n - k]).tolist()
    ranked = sorted([(-agg.weight, key) for key, agg in compress(cells.items(), at_or_above_cut)])[:k]
    return [(key, -nw) for nw, key in ranked]  # negation is exact, so -nw is the store's weight


def check_same_grid(store: PointStore, config: GridConfig) -> None:
    """Reject a store bucketed at another cell size than ``config``'s."""
    if store.cell_size != config.cell_size:
        raise ValueError(
            f"store cell size {store.cell_size!r} does not match config cell size {config.cell_size!r}"
        )


def static_place(store: PointStore, config: GridConfig) -> Placement:
    """Put one drone on each of the min(m, #cells) heaviest cells.

    Ties break toward the smaller cell key; the surplus drones, the last
    ones, are parked. The covered weight is the fsum of the chosen aggregates.
    O(C + m log m) for C cells, plus a sort of the cells tied with the m-th.
    """
    check_same_grid(store, config)
    chosen = rank_cells(store, config.m)
    covered = math.fsum(w for _, w in chosen)
    cells = tuple(key for key, _ in chosen) + (None,) * (config.m - len(chosen))
    return Placement(cells, covered, config)


def static_place_4m(store: PointStore, config: GridConfig) -> Placement:
    """Placement with a quadrupled drone budget; its covered weight always
    reaches the exact m-square optimum. Squares only."""
    if config.shape != SQUARE:
        raise ValueError("the 4m-budget guarantee is stated for squares only")
    return static_place(store, replace(config, m=4 * config.m))

