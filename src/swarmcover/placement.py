"""Static placement: assign drones to the heaviest grid cells.

Pure functions of the store contents; safe to call concurrently on a
store that is not being mutated.
"""

import math
from dataclasses import dataclass, replace

from .grid import DISK, SQUARE, CellIndex, GridConfig, cell_center
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
class DroneSite:
    drone: int
    cell: int | None  # cell key; None when parked
    geometry: SquareGeometry | DiskGeometry | None


@dataclass(frozen=True)
class Placement:
    drones: tuple[DroneSite, ...]
    covered_weight: float
    config: GridConfig


def cell_geometry(index: CellIndex, config: GridConfig) -> SquareGeometry | DiskGeometry:
    """Shape a drone materializes on a cell: the cell itself for squares,
    the circumscribing disk for disks."""
    r = config.cell_size
    if config.shape == SQUARE:
        a, b = index
        return SquareGeometry(a * r, b * r, r)
    cx, cy = cell_center(index, r)
    return DiskGeometry(cx, cy, config.r_cov)


def rank_cells(store: PointStore) -> list[tuple[int, float]]:
    """Live cells as (key, weight), heaviest first, key ascending on ties."""
    return sorted(
        ((key, agg.weight) for key, agg in store.cells.items()),
        key=lambda kw: (-kw[1], kw[0]),
    )


def check_same_grid(store: PointStore, config: GridConfig) -> None:
    """Reject a store bucketed at another cell size than ``config``'s."""
    if store.cell_size != config.cell_size:
        raise ValueError(
            f"store cell size {store.cell_size!r} does not match config cell size {config.cell_size!r}"
        )


def placement_of(keys: list[int | None], covered_weight: float, store: PointStore, config: GridConfig) -> Placement:
    """One site per drone: drone i on cell ``keys[i]``, parked where that is None."""
    cells = store.cells
    drones = [
        DroneSite(i, key, None if key is None else cell_geometry(cells[key].index, config))
        for i, key in enumerate(keys)
    ]
    return Placement(tuple(drones), covered_weight, config)


def static_place(store: PointStore, config: GridConfig) -> Placement:
    """Put one drone on each of the min(m, #cells) heaviest cells.

    Ties break toward the smaller cell key; surplus drones are parked with
    no geometry. The covered weight is the fsum of the chosen aggregates.
    """
    check_same_grid(store, config)
    chosen = rank_cells(store)[: config.m]
    covered = math.fsum(w for _, w in chosen)
    keys = [key for key, _ in chosen] + [None] * (config.m - len(chosen))
    return placement_of(keys, covered, store, config)


def static_place_4m(store: PointStore, config: GridConfig) -> Placement:
    """Placement with a quadrupled drone budget; its covered weight always
    reaches the exact m-square optimum. Squares only."""
    if config.shape != SQUARE:
        raise ValueError("the 4m-budget guarantee is stated for squares only")
    return static_place(store, replace(config, m=4 * config.m))

