"""Grid-bucketed drone coverage of weighted planar points.

Place m covering shapes (squares or disks) on the heaviest cells of an
implicit grid, keep the placement current under point inserts, deletes
and weight updates with one drone move and logarithmic work per event,
bound the optimum from above via axis projections, and check everything
against exhaustive small-instance oracles.
"""

from .dynamic import DELETE, INSERT, CoverageState, Event, build
from .formats import ParseError, format_points, format_trace, parse_points, parse_trace
from .grid import (
    DISK,
    SQUARE,
    GridConfig,
    Point,
    cantor_pair,
    cantor_unpair,
    cell_center,
    cell_index,
    cell_key,
    cell_key_to_index,
    fold_signed,
    unfold_signed,
)
from .intervals import IntervalInstance, dp_table, neighborhood_query, solve_mwpihp, upper_bound_2d
from .oracle import OracleSizeError, exact_disk_opt, exact_mwpihp, exact_square_opt
from .placement import (
    GUARANTEE,
    DiskGeometry,
    SquareGeometry,
    cell_geometry,
    rank_cells,
    static_place,
    static_place_4m,
)
from .store import DuplicateIdError, PointStore, UnknownIdError

__all__ = [
    "CoverageState",
    "DELETE",
    "DISK",
    "DiskGeometry",
    "DuplicateIdError",
    "Event",
    "GUARANTEE",
    "GridConfig",
    "INSERT",
    "IntervalInstance",
    "OracleSizeError",
    "ParseError",
    "Point",
    "PointStore",
    "SQUARE",
    "SquareGeometry",
    "UnknownIdError",
    "build",
    "cantor_pair",
    "cantor_unpair",
    "cell_center",
    "cell_geometry",
    "cell_index",
    "cell_key",
    "cell_key_to_index",
    "dp_table",
    "exact_disk_opt",
    "exact_mwpihp",
    "exact_square_opt",
    "fold_signed",
    "format_points",
    "format_trace",
    "neighborhood_query",
    "parse_points",
    "parse_trace",
    "rank_cells",
    "solve_mwpihp",
    "static_place",
    "static_place_4m",
    "unfold_signed",
    "upper_bound_2d",
]
