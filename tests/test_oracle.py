import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_disk_case, random_interval_case, random_square_case, straddle_points
from swarmcover import (
    GridConfig,
    IntervalInstance,
    OracleSizeError,
    Point,
    PointStore,
    exact_disk_opt,
    exact_mwpihp,
    exact_square_opt,
    static_place,
)


def sweep_square_opt(points, r_cov, m, step):
    """Independent dense-sweep optimum: square corners on a fine lattice
    spanning the bounding box instead of anchored at point coordinates."""
    side = 2.0 * r_cov
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    corners_x, corners_y = [], []
    cx = min(xs) - side
    while cx <= max(xs) + step:
        corners_x.append(cx)
        cx += step
    cy = min(ys) - side
    while cy <= max(ys) + step:
        corners_y.append(cy)
        cy += step
    masks = set()
    for cx in corners_x:
        for cy in corners_y:
            mask = 0
            for i, p in enumerate(points):
                if cx <= p.x <= cx + side and cy <= p.y <= cy + side:
                    mask |= 1 << i
            if mask:
                masks.add(mask)
    weights = [p.w for p in points]
    best = 0.0
    for combo in combinations(sorted(masks), min(m, len(masks))):
        union = 0
        for msk in combo:
            union |= msk
        total = sum(w for i, w in enumerate(weights) if union >> i & 1)
        best = max(best, total)
    return best


def test_square_examples():
    assert exact_square_opt([Point(1, 0.0, 0.0, 1.0)], 1.0, 1).opt_weight == 1.0
    assert exact_square_opt(straddle_points(), 0.5, 1).opt_weight == 4.0
    clusters = [
        Point(1, 0.0, 0.0, 1.5), Point(2, 0.2, 0.1, 1.5),
        Point(3, 9.0, 9.0, 2.0), Point(4, 9.1, 9.2, 3.0),
    ]
    assert exact_square_opt(clusters, 0.5, 1).opt_weight == 5.0


def test_square_empty_and_zero_budget():
    assert exact_square_opt([], 1.0, 2).opt_weight == 0.0
    assert exact_square_opt([Point(1, 0, 0, 3.0)], 1.0, 0).opt_weight == 0.0


def test_square_size_guard():
    pts = [Point(i, float(i), 0.0, 1.0) for i in range(13)]
    with pytest.raises(OracleSizeError):
        exact_square_opt(pts, 1.0, 1)
    with pytest.raises(OracleSizeError):
        exact_square_opt(pts[:3], 1.0, 4)


def test_square_witness_covers_reported_weight():
    rng = random.Random(73)
    for _ in range(30):
        points, r_cov, m = random_square_case(rng)
        res = exact_square_opt(points, r_cov, m)
        side = 2.0 * r_cov
        covered = 0.0
        for p in points:
            if any(cx <= p.x <= cx + side and cy <= p.y <= cy + side
                   for cx, cy in res.witness):
                covered += p.w
        assert abs(covered - res.opt_weight) <= 1e-9


def test_square_dominates_heuristic():
    rng = random.Random(79)
    for _ in range(60):
        points, r_cov, m = random_square_case(rng)
        cfg = GridConfig(r_cov, "square", m)
        store = PointStore(cfg.cell_size, points)
        sol = static_place(store, cfg).covered_weight
        assert exact_square_opt(points, r_cov, m).opt_weight >= sol - 1e-9


def test_square_candidates_match_dense_sweep():
    rng = random.Random(83)
    for _ in range(15):
        n = rng.randint(2, 6)
        m = rng.randint(1, 2)
        r_cov = rng.choice([0.25, 0.5, 0.75])
        # points on a coarse lattice keep the sweep tractable
        points = [
            Point(i, rng.randrange(0, 13) * 0.25, rng.randrange(0, 13) * 0.25, rng.uniform(0.1, 5.0))
            for i in range(n)
        ]
        gaps = [
            abs(a - b)
            for coords in ([p.x for p in points], [p.y for p in points])
            for a, b in combinations(sorted(set(coords)), 2)
        ]
        min_gap = min((g for g in gaps if g > 0), default=0.25)
        sweep = sweep_square_opt(points, r_cov, m, step=min_gap / 4)
        anchored = exact_square_opt(points, r_cov, m).opt_weight
        assert anchored >= sweep - 1e-9


def test_square_translation_invariance():
    rng = random.Random(89)
    for _ in range(20):
        points, r_cov, m = random_square_case(rng)
        dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        moved = [Point(p.id, p.x + dx, p.y + dy, p.w) for p in points]
        a = exact_square_opt(points, r_cov, m).opt_weight
        b = exact_square_opt(moved, r_cov, m).opt_weight
        assert abs(a - b) <= 1e-9


def test_disk_examples():
    assert exact_disk_opt([Point(1, 2.0, 3.0, 4.5)], 1.0, 1).opt_weight == 4.5
    # boundary inclusive: two points exactly 2*r_cov apart share one disk
    two = [Point(1, 0.0, 0.0, 1.0), Point(2, 2.0, 0.0, 2.0)]
    assert exact_disk_opt(two, 1.0, 1).opt_weight == 3.0
    far = [Point(1, 0.0, 0.0, 1.0), Point(2, 2.1, 0.0, 9.0)]
    assert exact_disk_opt(far, 1.0, 1).opt_weight == 9.0


def test_disk_size_guard():
    pts = [Point(i, float(i), 0.0, 1.0) for i in range(11)]
    with pytest.raises(OracleSizeError):
        exact_disk_opt(pts, 1.0, 1)
    with pytest.raises(OracleSizeError):
        exact_disk_opt(pts[:2], 1.0, 3)


def test_oracles_reject_bad_r_cov():
    pts = [Point(1, 0.0, 0.0, 1.0)]
    for r_cov in (0.0, -1.0, math.inf, math.nan, True):
        for oracle in (exact_square_opt, exact_disk_opt):
            with pytest.raises(ValueError, match="r_cov"):
                oracle(pts, r_cov, 1)


def test_oracles_reject_bad_drone_count():
    pts = [Point(1, 0.0, 0.0, 1.0)]
    for m in (1.5, True, "2", None, -1):
        for oracle in (exact_square_opt, exact_disk_opt):
            with pytest.raises(ValueError, match="m must be"):
                oracle(pts, 0.5, m)


def test_disk_dominates_heuristic():
    rng = random.Random(97)
    for _ in range(60):
        points, r_cov, m = random_disk_case(rng)
        cfg = GridConfig(r_cov, "disk", m)
        store = PointStore(cfg.cell_size, points)
        sol = static_place(store, cfg).covered_weight
        assert exact_disk_opt(points, r_cov, m).opt_weight >= sol - 1e-9


def test_disk_witness_covers_reported_weight():
    rng = random.Random(101)
    for _ in range(30):
        points, r_cov, m = random_disk_case(rng)
        res = exact_disk_opt(points, r_cov, m)
        covered = 0.0
        for p in points:
            if any(math.hypot(p.x - cx, p.y - cy) <= r_cov + 1e-6 for cx, cy in res.witness):
                covered += p.w
        assert covered >= res.opt_weight - 1e-9


def test_disk_translation_invariance():
    rng = random.Random(103)
    for _ in range(20):
        points, r_cov, m = random_disk_case(rng)
        dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        moved = [Point(p.id, p.x + dx, p.y + dy, p.w) for p in points]
        a = exact_disk_opt(points, r_cov, m).opt_weight
        b = exact_disk_opt(moved, r_cov, m).opt_weight
        assert abs(a - b) <= 1e-9


def test_mwpihp_examples():
    inst = IntervalInstance([(0, 2), (1, 3), (5, 4)], 2.0, 1)
    assert exact_mwpihp(inst) == 5.0
    everything = IntervalInstance([(0, 2), (1, 3), (5, 4)], 2.0, 3)
    assert exact_mwpihp(everything) == 9.0
    assert exact_mwpihp(IntervalInstance([(0, 2)], 2.0, 0)) == 0.0


def test_mwpihp_size_guard():
    items = [(float(i), 1.0) for i in range(13)]
    with pytest.raises(OracleSizeError):
        exact_mwpihp(IntervalInstance(items, 1.0, 1))


# magnitudes a float sum rounds away: 1e16 + 1.0 == 1e16, and the subnormal step
ADVERSARIAL_WEIGHTS = (1e16, 3.0, 1.0, 5e-324, 0.0)


def exact_sum(weights):
    return float(sum(Fraction(w) for w in weights))


def reweighted(rng, points, adversarial):
    if not adversarial:
        return points
    return [p._replace(w=rng.choice(ADVERSARIAL_WEIGHTS)) for p in points]


@pytest.mark.parametrize("adversarial", [False, True], ids=["uniform", "adversarial"])
def test_square_opt_is_the_exact_weight_its_witness_covers(adversarial):
    rng = random.Random(107)
    cases = [([Point(1, 0.0, 0.0, 1.0), Point(2, 0.0, 0.0, 1.0), Point(3, 0.0, 0.0, 1e16)], 1.0, 1)]
    for _ in range(1000):
        points, r_cov, m = random_square_case(rng)
        cases.append((reweighted(rng, points, adversarial), r_cov, m))
    for points, r_cov, m in cases:
        res = exact_square_opt(points, r_cov, m)
        side = 2.0 * r_cov
        covered = [p.w for p in points
                   if any(cx <= p.x <= cx + side and cy <= p.y <= cy + side for cx, cy in res.witness)]
        assert res.opt_weight == exact_sum(covered)


@pytest.mark.parametrize("adversarial", [False, True], ids=["uniform", "adversarial"])
def test_disk_opt_is_the_exact_weight_its_witness_covers(adversarial):
    rng = random.Random(109)
    cases = [([Point(1, 0.0, 0.0, 1.0), Point(2, 0.5, 0.0, 1.0), Point(3, 0.0, 0.5, 1e16)], 1.0, 1)]
    for _ in range(1000):
        points, r_cov, m = random_disk_case(rng)
        cases.append((reweighted(rng, points, adversarial), r_cov, m))
    for points, r_cov, m in cases:
        res = exact_disk_opt(points, r_cov, m)
        slack = 1e-12 * (1.0 + r_cov * r_cov)  # the oracle's own closed test
        covered = [p.w for p in points
                   if any((p.x - cx) * (p.x - cx) + (p.y - cy) * (p.y - cy) <= r_cov * r_cov + slack
                          for cx, cy in res.witness)]
        assert res.opt_weight == exact_sum(covered)


def fraction_mwpihp(instance):
    """Test-only brute force: every choice of min(m, #lefts) distinct left
    endpoints, each stabbed set summed in Fractions, the best rounded once."""
    lefts, weights, length = instance.lefts, instance.weights, instance.length
    distinct = sorted(set(lefts))
    stabbed = set()
    for combo in combinations(distinct, min(instance.m, len(distinct))):
        stabbed.add(frozenset(i for i, l in enumerate(lefts) if any(l <= t <= l + length for t in combo)))
    return max(exact_sum(weights[i] for i in s) for s in stabbed)


@pytest.mark.parametrize("adversarial", [False, True], ids=["uniform", "adversarial"])
def test_mwpihp_equals_a_fraction_brute_force(adversarial):
    rng = random.Random(113)
    cases = [([(0.0, 1.0), (0.5, 1.0), (1.0, 1e16)], 2.0, 1)]
    for _ in range(1000):
        items, length, m = random_interval_case(rng)
        if adversarial:
            items = [(l, rng.choice(ADVERSARIAL_WEIGHTS)) for l, _ in items]
        cases.append((items, length, m))
    for items, length, m in cases:
        instance = IntervalInstance(items, length, m)
        assert exact_mwpihp(instance) == fraction_mwpihp(instance)


@pytest.mark.parametrize("weight", [-5.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_oracles_reject_bad_weights(weight):
    pts = [Point(1, 0.0, 0.0, 1.0), Point(2, 0.1, 0.1, weight)]
    for oracle in (exact_square_opt, exact_disk_opt):
        with pytest.raises(ValueError, match="weight must be finite and >= 0"):
            oracle(pts, 1.0, 1)


def test_optimum_past_float_range_raises_overflow():
    # each weight is finite; their exact sum is not, and is never rounded to inf
    pts = [Point(1, 0.0, 0.0, 1e308), Point(2, 0.1, 0.1, 1e308)]
    for oracle in (exact_square_opt, exact_disk_opt):
        with pytest.raises(OverflowError):
            oracle(pts, 1.0, 1)
