"""One-dimensional piercing solver and the axis-projection upper bound.

Equal-length weighted intervals are pierced by at most m points so that
the total weight of stabbed intervals is maximal. Because all intervals
share one length, piercing points can be restricted to left endpoints
without loss, which makes a prefix dynamic program over the sorted left
endpoints exact. Projecting a planar point set onto each axis and solving
both 1D instances yields an upper bound on the best m-square coverage.

Cost: an O(n log n) stable sort and neighbourhood search, then at most m
vectorized O(n) DP rows, stopping early at the first row that repeats its
predecessor. The bound keeps two rows, so it needs O(n) memory.
"""

from collections import deque

import numpy as np

from .grid import GridConfig, check_count, check_size
from .store import PointStore


def _neighborhoods(lefts: np.ndarray, weights: np.ndarray, length: float):
    """Check one axis and sort it stably by left endpoint. Returns (lefts,
    weights, starts, windows): the intervals a point at the j-th left
    endpoint stabs are starts[j]..j, of total weight windows[j]. ``length``
    may be inf: a right endpoint l + length past the float range stabs every
    later endpoint, which it would too if it were exact."""
    for values, ok, rule in ((lefts, np.isfinite(lefts), "left endpoint must be finite"),
                             (weights, np.isfinite(weights) & (weights >= 0), "weight must be finite and >= 0")):
        if not ok.all():
            raise ValueError(f"{rule}, got {float(values[ok.argmin()])!r}")
    order = np.argsort(lefts, kind="stable")
    lefts, weights = lefts[order], weights[order]
    with np.errstate(over="ignore"):
        # right endpoints rounded once, as l + length, so the stab test is exact
        starts = np.searchsorted(lefts + float(length), lefts, side="left")
        scale = 0  # weights scaled by 2**-scale only if the prefix overflows, as inf - inf is NaN
        prefix = np.cumsum(np.concatenate(([0.0], weights)))
        if prefix[-1] == np.inf:
            scale = len(weights).bit_length() + 1
            prefix = np.cumsum(np.concatenate(([0.0], np.ldexp(weights, -scale))))
        return lefts, weights, starts, np.ldexp(prefix[1:] - prefix[starts], scale)


def _dp_rows(starts: np.ndarray, windows: np.ndarray, m: int):
    """Yield the rows best[., k], k = 0..m: best[j][k] is the max weight k
    points pierce among the first j intervals, the better of skipping the
    j-th and piercing its left endpoint (fmax skips a NaN pierce). Stops at
    the first row equal to its predecessor; every later row equals it."""
    row = np.zeros(len(windows) + 1)
    yield row
    for _ in range(m):
        with np.errstate(over="ignore"):
            nxt = np.fmax.accumulate(np.concatenate(([0.0], row[starts] + windows)))
        if np.array_equal(nxt, row):
            return
        row = nxt
        yield row


class IntervalInstance:
    """Equal-length weighted intervals given by left endpoints, plus a budget.

    Items are stored sorted ascending by left endpoint (stable, so ties
    keep their input order).
    """

    def __init__(self, items, length: float, m: int):
        check_count(m, "budget", 0)
        check_size(length, "interval length")
        pairs = np.array([(l, w) for l, w in items], dtype=float).reshape(-1, 2)
        lefts, weights, self._starts, self._windows = _neighborhoods(pairs[:, 0], pairs[:, 1], length)
        self.length = float(length)
        self.m = m
        self.lefts = lefts.tolist()
        self.weights = weights.tolist()

    def __len__(self) -> int:
        return len(self.lefts)


def neighborhood_query(instance: IntervalInstance, j: int) -> tuple[int, float]:
    """Count and weight of intervals among the first j (1-based, sorted)
    whose left endpoint lies within ``length`` of the j-th left endpoint.

    Those are exactly the intervals a point at the j-th left endpoint
    stabs; they form a contiguous run, found for every j at once when the
    instance is built, so the query is an O(1) lookup.
    """
    n = len(instance)
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of range 1..{n}")
    return j - int(instance._starts[j - 1]), float(instance._windows[j - 1])


def dp_table(instance: IntervalInstance) -> list[list[float]]:
    """Table best[j][k] (j <= n, k <= m): max weight k points pierce among the first j intervals."""
    rows = list(_dp_rows(instance._starts, instance._windows, instance.m))
    rows += [rows[-1]] * (instance.m + 1 - len(rows))
    return np.array(rows).T.tolist()


def solve_mwpihp(instance: IntervalInstance) -> tuple[float, list[float]]:
    """Best pierceable weight and at most m piercing points achieving it.

    Points are recovered by backtracking and returned ascending; they are
    always left endpoints of input intervals.
    """
    rows = list(_dp_rows(instance._starts, instance._windows, instance.m))
    points: list[float] = []
    j, k = len(instance), instance.m
    while j > 0 and k > 0:
        row = rows[min(k, len(rows) - 1)]
        # rows never decrease in j: skip to the first j of this value,
        # where piercing the j-th interval raised it
        j = int(np.searchsorted(row, row[j], side="left"))
        if j == 0:
            break
        points.append(instance.lefts[j - 1])
        j = int(instance._starts[j - 1])
        k -= 1
    points.reverse()
    return float(rows[-1][-1]), points


def upper_bound_2d(store: PointStore, config: GridConfig) -> tuple[float, float, float]:
    """Upper bound on the best m-shape coverage of the store's points.

    Each point projects onto an axis as an interval of length 2 * r_cov
    anchored at its coordinate; any m-shape solution pierces m points per
    axis, so each axis bound dominates the planar optimum. Returns
    (bound_x, bound_y, min of the two). A disk r_cov past half the float
    range projects to length inf, which stabs exactly as 2 * r_cov would.
    """
    pts = store.points.values()
    ws = np.fromiter((p.w for p in pts), float, len(pts))
    bounds = []
    for coords in (np.fromiter((p.x for p in pts), float, len(pts)),
                   np.fromiter((p.y for p in pts), float, len(pts))):
        _, _, starts, windows = _neighborhoods(coords, ws, 2.0 * config.r_cov)
        bounds.append(float(deque(_dp_rows(starts, windows, config.m), maxlen=1).pop()[-1]))  # last row only
    bound_x, bound_y = bounds
    return bound_x, bound_y, min(bound_x, bound_y)
