"""Exhaustive exact solvers for small instances.

Ground truth for every approximation claim, never a practical solver.
Instance sizes are hard-guarded so an accidental large call fails fast
instead of hanging. Shape boundaries are closed. Square coverage is
decided by exact float comparisons; any wider tolerance would let a
"square" span three grid columns on adversarial near-boundary inputs and
overstate the optimum. Disk coverage carries an ulp-scale slack only
because pair-circle centers come out of square roots, so their defining
points would otherwise miss their own circle by a last bit.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .grid import _FIXED_ONE, Point, _fixed, _float_weight, check_count, check_size
from .intervals import IntervalInstance

MAX_SQUARE_POINTS, MAX_SQUARE_SHAPES = 12, 3
MAX_DISK_POINTS, MAX_DISK_SHAPES = 10, 2
MAX_PIERCE_ITEMS, MAX_PIERCE_BUDGET = 12, 3


class OracleSizeError(ValueError):
    """Instance exceeds the hard enumeration guard."""


@dataclass(frozen=True)
class OracleResult:
    opt_weight: float
    witness: tuple  # chosen square min-corners or disk centers


def _mask_weights(weights: Sequence[float]) -> list[int]:
    # exact total weight per item-subset bitmask in steps of 2**-1074, O(2^n) with n <= 12
    fixed = [_fixed(w) for w in weights]
    table = [0] * (1 << len(weights))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + fixed[low.bit_length() - 1]
    return table


def _maximal_masks(cand: dict[int, object]) -> list[int]:
    masks = sorted(cand)
    return [m for m in masks if not any(m != o and m & o == m for o in masks)]


def _best_union(maximal: list[int], k: int, wsum: list[int]) -> tuple[float, tuple[int, ...]]:
    best_w = -1
    best_combo: tuple[int, ...] = ()
    for combo in combinations(maximal, k):
        union = 0
        for msk in combo:
            union |= msk
        w = wsum[union]
        if w > best_w:  # first strict max keeps the enumeration-order witness
            best_w = w
            best_combo = combo
    return best_w / _FIXED_ONE, best_combo


def _guard(kind: str, n: int, m: int, max_n: int, max_m: int) -> None:
    if n > max_n or m > max_m:
        raise OracleSizeError(f"{kind} oracle is guarded to n <= {max_n}, m <= {max_m}; got n={n}, m={m}")


def _best_cover(items: Sequence, weights: Sequence[float], positions: Iterable,
                covers: Callable[..., bool], m: int) -> tuple[float, tuple]:
    """Best weight that m of ``positions`` cover among ``items``, and the
    positions that reach it.

    Each nonempty covered set (a bitmask over the items) keeps the first
    position that covers it, and the answer is the best union of
    min(m, #maximal) maximal sets. Sums are exact and the winner is rounded
    once, so a weight sum past the float range raises OverflowError.
    """
    for w in weights:
        _float_weight(w)
    cand: dict[int, object] = {}
    for pos in positions:
        mask = sum(1 << i for i, item in enumerate(items) if covers(pos, item))
        if mask:
            cand.setdefault(mask, pos)
    maximal = _maximal_masks(cand)
    best_w, best_combo = _best_union(maximal, min(m, len(maximal)), _mask_weights(weights))
    return best_w, tuple(cand[msk] for msk in best_combo)


def _check_points(points: Iterable[Point], r_cov: float, m: int, kind: str, max_n: int, max_m: int) -> list[Point]:
    pts = list(points)
    check_count(m, "m", 0)
    _guard(kind, len(pts), m, max_n, max_m)
    check_size(r_cov, "r_cov")
    return pts


def exact_square_opt(points: Iterable[Point], r_cov: float, m: int) -> OracleResult:
    """Best total weight coverable by m axis-aligned squares of side 2 * r_cov.

    Candidate squares have their left edge on some point's x and bottom
    edge on some point's y; any square can be shifted onto such a position
    without dropping a covered point, so the restriction is lossless.
    """
    pts = _check_points(points, r_cov, m, "square", MAX_SQUARE_POINTS, MAX_SQUARE_SHAPES)
    side = 2.0 * r_cov
    corners = [(cx, cy) for cx in sorted({p.x for p in pts}) for cy in sorted({p.y for p in pts})]

    def covers(corner: tuple[float, float], p: Point) -> bool:
        cx, cy = corner
        return cx <= p.x <= cx + side and cy <= p.y <= cy + side

    return OracleResult(*_best_cover(pts, [p.w for p in pts], corners, covers, m))


def exact_disk_opt(points: Iterable[Point], r_cov: float, m: int) -> OracleResult:
    """Best total weight coverable by m disks of radius r_cov.

    Candidate centers: every point, plus the two circles of radius r_cov
    through each point pair closer than 2 * r_cov (the classical lossless
    candidate set for equal disks).
    """
    pts = _check_points(points, r_cov, m, "disk", MAX_DISK_POINTS, MAX_DISK_SHAPES)
    r = float(r_cov)
    slack = 1e-12 * (1.0 + r * r)  # construction rounding only, see module docstring
    centers: list[tuple[float, float]] = [(p.x, p.y) for p in pts]
    for a, b in combinations(pts, 2):
        dx = b.x - a.x
        dy = b.y - a.y
        d_sq = dx * dx + dy * dy
        if d_sq > 4.0 * r * r + 4.0 * slack or d_sq == 0.0:
            continue
        mx = (a.x + b.x) / 2.0
        my = (a.y + b.y) / 2.0
        h_sq = r * r - d_sq / 4.0
        h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
        d = math.sqrt(d_sq)
        ux, uy = -dy / d, dx / d  # unit perpendicular to the chord
        centers.append((mx + h * ux, my + h * uy))
        centers.append((mx - h * ux, my - h * uy))

    def covers(center: tuple[float, float], p: Point) -> bool:
        dx = p.x - center[0]
        dy = p.y - center[1]
        return dx * dx + dy * dy <= r * r + slack

    return OracleResult(*_best_cover(pts, [p.w for p in pts], centers, covers, m))


def exact_mwpihp(instance: IntervalInstance) -> float:
    """Best pierceable weight by brute force over piercing points at the
    distinct left endpoints."""
    _guard("piercing", len(instance), instance.m, MAX_PIERCE_ITEMS, MAX_PIERCE_BUDGET)
    length = instance.length
    return _best_cover(instance.lefts, instance.weights, sorted(set(instance.lefts)),
                       lambda t, l: l <= t <= l + length, instance.m)[0]
