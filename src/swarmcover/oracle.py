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
from typing import Iterable, Sequence

from .grid import Point, check_count, check_size
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


def _mask_weights(weights: Sequence[float]) -> list[float]:
    # total weight per point-subset bitmask, O(2^n) with n <= 12
    table = [0.0] * (1 << len(weights))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def _maximal_masks(cand: dict[int, tuple]) -> list[int]:
    masks = sorted(cand)
    return [
        m for m in masks
        if not any(m != o and m & o == m for o in masks)
    ]


def _best_union(maximal: list[int], k: int, wsum: list[float]) -> tuple[float, tuple[int, ...]]:
    best_w = -1.0
    best_combo: tuple[int, ...] = ()
    for combo in combinations(maximal, k):
        union = 0
        for msk in combo:
            union |= msk
        w = wsum[union]
        if w > best_w:  # first strict max keeps the enumeration-order witness
            best_w = w
            best_combo = combo
    return best_w, best_combo


def _guard(kind: str, n: int, m: int, max_n: int, max_m: int) -> None:
    if n > max_n or m > max_m:
        raise OracleSizeError(f"{kind} oracle is guarded to n <= {max_n}, m <= {max_m}; got n={n}, m={m}")


def _exact_opt(points, r_cov, m, kind, max_n, max_m, candidates) -> OracleResult:
    """Check the instance, then take the best union of m maximal candidates.

    ``candidates(pts, r_cov)`` maps each nonempty covered-point bitmask to
    the first shape position that covers it.
    """
    pts = list(points)
    n = len(pts)
    check_count(m, "m", 0)
    _guard(kind, n, m, max_n, max_m)
    check_size(r_cov, "r_cov")
    if n == 0 or m == 0:
        return OracleResult(0.0, ())
    cand = candidates(pts, r_cov)
    maximal = _maximal_masks(cand)
    wsum = _mask_weights([p.w for p in pts])
    best_w, best_combo = _best_union(maximal, min(m, len(maximal)), wsum)
    return OracleResult(best_w, tuple(cand[msk] for msk in best_combo))


def _square_candidates(pts: list[Point], r_cov: float) -> dict[int, tuple[float, float]]:
    side = 2.0 * r_cov
    cand: dict[int, tuple[float, float]] = {}
    for cx in sorted({p.x for p in pts}):
        for cy in sorted({p.y for p in pts}):
            mask = 0
            for i, p in enumerate(pts):
                if cx <= p.x <= cx + side and cy <= p.y <= cy + side:
                    mask |= 1 << i
            if mask:
                cand.setdefault(mask, (cx, cy))
    return cand


def _disk_candidates(pts: list[Point], r_cov: float) -> dict[int, tuple[float, float]]:
    n = len(pts)
    r = float(r_cov)
    slack = 1e-12 * (1.0 + r * r)  # construction rounding only, see module docstring
    centers: list[tuple[float, float]] = [(p.x, p.y) for p in pts]
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[j].x - pts[i].x
            dy = pts[j].y - pts[i].y
            d_sq = dx * dx + dy * dy
            if d_sq > 4.0 * r * r + 4.0 * slack or d_sq == 0.0:
                continue
            mx = (pts[i].x + pts[j].x) / 2.0
            my = (pts[i].y + pts[j].y) / 2.0
            h_sq = r * r - d_sq / 4.0
            h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
            d = math.sqrt(d_sq)
            ux, uy = -dy / d, dx / d  # unit perpendicular to the chord
            centers.append((mx + h * ux, my + h * uy))
            centers.append((mx - h * ux, my - h * uy))
    cand: dict[int, tuple[float, float]] = {}
    for cx, cy in centers:
        mask = 0
        for i, p in enumerate(pts):
            dx = p.x - cx
            dy = p.y - cy
            if dx * dx + dy * dy <= r * r + slack:
                mask |= 1 << i
        if mask:
            cand.setdefault(mask, (cx, cy))
    return cand


def exact_square_opt(points: Iterable[Point], r_cov: float, m: int) -> OracleResult:
    """Best total weight coverable by m axis-aligned squares of side 2 * r_cov.

    Candidate squares have their left edge on some point's x and bottom
    edge on some point's y; any square can be shifted onto such a position
    without dropping a covered point, so the restriction is lossless.
    """
    return _exact_opt(points, r_cov, m, "square", MAX_SQUARE_POINTS, MAX_SQUARE_SHAPES, _square_candidates)


def exact_disk_opt(points: Iterable[Point], r_cov: float, m: int) -> OracleResult:
    """Best total weight coverable by m disks of radius r_cov.

    Candidate centers: every point, plus the two circles of radius r_cov
    through each point pair closer than 2 * r_cov (the classical lossless
    candidate set for equal disks).
    """
    return _exact_opt(points, r_cov, m, "disk", MAX_DISK_POINTS, MAX_DISK_SHAPES, _disk_candidates)


def exact_mwpihp(instance: IntervalInstance) -> float:
    """Best pierceable weight by brute force over left-endpoint subsets."""
    n, m = len(instance), instance.m
    _guard("piercing", n, m, MAX_PIERCE_ITEMS, MAX_PIERCE_BUDGET)
    if n == 0 or m == 0:
        return 0.0
    length = instance.length
    lefts = sorted(set(instance.lefts))
    best = 0.0
    for combo in combinations(lefts, min(m, len(lefts))):
        total = 0.0
        for l, w in zip(instance.lefts, instance.weights):
            for t in combo:
                if l <= t <= l + length:
                    total += w
                    break
        if total > best:
            best = total
    return best
