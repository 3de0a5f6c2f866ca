"""One-dimensional piercing solver and the axis-projection upper bound.

Equal-length weighted intervals are pierced by at most m points so that
the total weight of stabbed intervals is maximal. Because all intervals
share one length, piercing points can be restricted to left endpoints
without loss, which makes a prefix dynamic program over the sorted left
endpoints exact. Projecting a planar point set onto each axis and solving
both 1D instances yields an upper bound on the best m-square coverage.
"""

import math
from bisect import bisect_left

from .grid import GridConfig, check_size
from .store import PointStore


class IntervalInstance:
    """Equal-length weighted intervals given by left endpoints, plus a budget.

    Items are stored sorted ascending by left endpoint (stable, so ties
    keep their input order).
    """

    def __init__(self, items, length: float, m: int):
        check_size(length, "interval length")
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValueError(f"budget must be a non-negative integer, got {m!r}")
        pairs = sorted(((float(l), float(w)) for l, w in items), key=lambda it: it[0])
        for l, w in pairs:
            if not math.isfinite(l):
                raise ValueError(f"left endpoint must be finite, got {l!r}")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"weight must be finite and >= 0, got {w!r}")
        self.lefts = [l for l, _ in pairs]
        self.weights = [w for _, w in pairs]
        self.length = float(length)
        self.m = m
        # right endpoints, rounded once; all stab tests use these so the
        # boundary predicate matches "l <= t <= l + length" exactly
        self.rights = [l + self.length for l in self.lefts]
        self.prefix_weights = [0.0]
        acc = 0.0
        for w in self.weights:
            acc += w
            self.prefix_weights.append(acc)

    def __len__(self) -> int:
        return len(self.lefts)


def neighborhood_query(instance: IntervalInstance, j: int) -> tuple[int, float]:
    """Count and weight of intervals among the first j (1-based, sorted)
    whose left endpoint lies within ``length`` of the j-th left endpoint.

    Those are exactly the intervals a point at the j-th left endpoint
    stabs; they form a contiguous run found by binary search over the
    right endpoints, so the query is O(log n) via a prefix-sum difference.
    """
    n = len(instance)
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of range 1..{n}")
    lj = instance.lefts[j - 1]
    lo = bisect_left(instance.rights, lj, 0, j)
    return j - lo, instance.prefix_weights[j] - instance.prefix_weights[lo]


def dp_table(instance: IntervalInstance) -> list[list[float]]:
    """Fill the piercing table best[j][k], the max weight pierceable among
    the first j intervals with k points: either the j-th interval's left
    endpoint is the k-th piercing point (claiming its whole neighborhood)
    or it is not."""
    n, m = len(instance), instance.m
    neigh = [neighborhood_query(instance, j) for j in range(1, n + 1)]
    best = [[0.0] * (m + 1) for _ in range(n + 1)]
    for k in range(1, m + 1):
        for j in range(1, n + 1):
            nj, wj = neigh[j - 1]
            skip = best[j - 1][k]
            pierce = best[j - nj][k - 1] + wj
            best[j][k] = pierce if pierce > skip else skip
    return best


def solve_mwpihp(instance: IntervalInstance) -> tuple[float, list[float]]:
    """Best pierceable weight and at most m piercing points achieving it.

    Points are recovered by backtracking and returned ascending; they are
    always left endpoints of input intervals. O(m n + n log n).
    """
    best = dp_table(instance)
    n, m = len(instance), instance.m
    points: list[float] = []
    j, k = n, m
    while j > 0 and k > 0:
        if best[j][k] == best[j - 1][k]:
            j -= 1
        else:
            points.append(instance.lefts[j - 1])
            nj, _ = neighborhood_query(instance, j)
            j -= nj
            k -= 1
    points.reverse()
    return best[n][m], points


def upper_bound_2d(store: PointStore, config: GridConfig) -> tuple[float, float, float]:
    """Upper bound on the best m-shape coverage of the store's points.

    Each point projects onto an axis as an interval of length 2 * r_cov
    anchored at its coordinate; any m-shape solution pierces m points per
    axis, so each axis bound dominates the planar optimum. Returns
    (bound_x, bound_y, min of the two).
    """
    pts = store.points.values()
    length = 2.0 * config.r_cov
    xs = IntervalInstance(((p.x, p.w) for p in pts), length, config.m)
    ys = IntervalInstance(((p.y, p.w) for p in pts), length, config.m)
    bound_x, _ = solve_mwpihp(xs)
    bound_y, _ = solve_mwpihp(ys)
    return bound_x, bound_y, min(bound_x, bound_y)
