"""Planar grid geometry: cell indexing and integer cell keys.

Everything here is a pure function of its arguments and safe to call from
any number of threads. Coordinates are floats (meters); cell keys are
natural numbers suitable as dictionary keys.
"""

import math
from dataclasses import dataclass

SQUARE = "square"
DISK = "disk"
_SHAPES = (SQUARE, DISK)

# (a, b) = floor-divided coordinates of a grid cell
CellIndex = tuple[int, int]


@dataclass(slots=True)
class Point:
    """A weighted planar point; ``id`` is any hashable caller-chosen token."""

    id: object
    x: float
    y: float
    w: float


@dataclass(frozen=True)
class GridConfig:
    """Covering configuration: shape radius, shape kind, drone count.

    The grid cell size follows from the shape: a square of radius ``r_cov``
    coincides with a cell of size ``2 * r_cov``, while a disk of radius
    ``r_cov`` circumscribes a cell of size ``sqrt(2) * r_cov`` (the cell's
    half-diagonal is then exactly ``r_cov``).
    """

    r_cov: float
    shape: str = SQUARE
    m: int = 1

    def __post_init__(self):
        check_size(self.r_cov, "r_cov")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    @property
    def cell_size(self) -> float:
        if self.shape == SQUARE:
            return 2.0 * self.r_cov
        return math.sqrt(2.0) * self.r_cov


def check_size(value, name: str) -> None:
    """Reject a length that is not a positive finite int or float (bools
    are not lengths)."""
    if type(value) is bool or not (
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0
    ):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def cell_index(x: float, y: float, r: float) -> CellIndex:
    """Grid cell containing (x, y) for cell size r.

    Floor semantics toward -inf: a point exactly on a grid line belongs to
    the cell with the larger index. A coordinate so far out that x / r
    overflows has no cell and is rejected.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")
    check_size(r, "cell size")
    try:
        return math.floor(x / r), math.floor(y / r)
    except OverflowError:
        raise ValueError(f"cell index of ({x!r}, {y!r}) at cell size {r!r} is not finite") from None


def fold_signed(z: int) -> int:
    """Bijection from all integers onto the naturals: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return 2 * z if z >= 0 else -2 * z - 1


def unfold_signed(n: int) -> int:
    """Inverse of fold_signed."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n!r}")
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def cantor_pair(a: int, b: int) -> int:
    """Pair two naturals injectively: (a + b + 1)(a + b) / 2 + b.

    Exact integer arithmetic with no upper range limit, so the result can
    never silently wrap.
    """
    if a < 0 or b < 0:
        raise ValueError(f"cantor_pair needs naturals, got ({a!r}, {b!r})")
    s = a + b
    return (s + 1) * s // 2 + b


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of cantor_pair (exact, via integer square root)."""
    if z < 0:
        raise ValueError(f"expected a natural number, got {z!r}")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def cell_key(a: int, b: int) -> int:
    """Natural-number identity of a cell index, injective over all of Z x Z:
    cantor_pair(fold_signed(a), fold_signed(b)), written out because every
    point insert, delete and update computes it."""
    fa = a + a if a >= 0 else -a - a - 1
    fb = b + b if b >= 0 else -b - b - 1
    s = fa + fb
    return (s + 1) * s // 2 + fb


def cell_key_to_index(key: int) -> CellIndex:
    """Inverse of cell_key."""
    fa, fb = cantor_unpair(key)
    return unfold_signed(fa), unfold_signed(fb)


def cell_center(index: CellIndex, r: float) -> tuple[float, float]:
    """Midpoint of the cell at ``index`` for cell size r."""
    # check_size written out: disk placement calls this once per drone
    if type(r) is bool or not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
        raise ValueError(f"cell size must be positive and finite, got {r!r}")
    a, b = index
    return (a + 0.5) * r, (b + 0.5) * r
