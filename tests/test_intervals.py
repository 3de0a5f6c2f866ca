import random
from bisect import bisect_left

import pytest

from conftest import random_interval_case, straddle_points
from swarmcover import (
    GridConfig,
    IntervalInstance,
    Point,
    PointStore,
    dp_table,
    exact_mwpihp,
    exact_square_opt,
    neighborhood_query,
    solve_mwpihp,
    upper_bound_2d,
)


def scan_neighborhood(instance, j):
    """Reference linear scan for the query: first j items stabbed by a
    point at the j-th left endpoint (l <= t <= l + length)."""
    lj = instance.lefts[j - 1]
    count, weight = 0, 0.0
    for l, w in zip(instance.lefts[:j], instance.weights[:j]):
        if l <= lj <= l + instance.length:
            count += 1
            weight += w
    return count, weight


def pierced_weight(instance, points):
    """Union weight of intervals stabbed by any of the given points."""
    total = 0.0
    for l, w in zip(instance.lefts, instance.weights):
        if any(l <= t <= l + instance.length for t in points):
            total += w
    return total


def reference_dp(items, length, m):
    """The list DP the vectorized one replaced, kept as the reference.

    Sorts the items itself, finds each neighbourhood by bisection over the
    right endpoints with prefix-sum differences, and fills best[j][k]
    cell by cell. Returns (sorted (left, weight) pairs, neighbourhoods,
    table, (best, points)).
    """
    pairs = sorted(((float(l), float(w)) for l, w in items), key=lambda it: it[0])
    lefts = [l for l, _ in pairs]
    rights = [l + length for l in lefts]
    prefix = [0.0]
    acc = 0.0
    for _, w in pairs:
        acc += w
        prefix.append(acc)
    n = len(pairs)
    neigh = []
    for j in range(1, n + 1):
        lo = bisect_left(rights, lefts[j - 1], 0, j)
        neigh.append((j - lo, prefix[j] - prefix[lo]))
    best = [[0.0] * (m + 1) for _ in range(n + 1)]
    for k in range(1, m + 1):
        for j in range(1, n + 1):
            nj, wj = neigh[j - 1]
            skip = best[j - 1][k]
            pierce = best[j - nj][k - 1] + wj
            best[j][k] = pierce if pierce > skip else skip
    points = []
    j, k = n, m
    while j > 0 and k > 0:
        if best[j][k] == best[j - 1][k]:
            j -= 1
        else:
            points.append(lefts[j - 1])
            j -= neigh[j - 1][0]
            k -= 1
    points.reverse()
    return pairs, neigh, best, (best[n][m], points)


def differential_case(rng, n):
    """Items with duplicate lefts, exact ties, zero weights and endpoints
    that touch exactly (l_i + length == l_j on a half-integer grid), or
    plain random ones; weights mix magnitudes so that float rounding
    depends on the order of the sums."""
    if rng.random() < 0.6:
        length = rng.choice([0.5, 1.0, 2.5])
        span = rng.randint(1, max(1, n // 2))
        lefts = [rng.choice([-0.0, 0.0]) if rng.random() < 0.05 else 0.5 * rng.randint(-span, span)
                 for _ in range(n)]
    else:
        length = rng.uniform(0.1, 5.0)
        lefts = [rng.uniform(-50.0, 50.0) for _ in range(n)]
    pool = [0.0, -0.0, 1.0, 2.0, 3.0, 0.1, 1e16, 5e-324, rng.uniform(0.0, 10.0)]
    weights = [rng.choice(pool) if rng.random() < 0.7 else rng.uniform(0.0, 10.0) for _ in range(n)]
    return list(zip(lefts, weights)), length


def three_interval_instance(m):
    return IntervalInstance([(0, 2), (1, 3), (5, 4)], 2.0, m)


def test_instance_sorts_items_stably():
    inst = IntervalInstance([(5, 1), (0, 2), (5, 3)], 1.0, 1)
    assert inst.lefts == [0.0, 5.0, 5.0]
    assert inst.weights == [2.0, 1.0, 3.0]


def test_instance_validation():
    with pytest.raises(ValueError):
        IntervalInstance([(0, 1)], 0.0, 1)
    with pytest.raises(ValueError):
        IntervalInstance([(0, 1)], True, 1)
    with pytest.raises(ValueError):
        IntervalInstance([(0, 1)], float("inf"), 1)
    with pytest.raises(ValueError):
        IntervalInstance([(0, -1)], 1.0, 1)
    with pytest.raises(ValueError):
        IntervalInstance([(float("inf"), 1)], 1.0, 1)
    with pytest.raises(ValueError):
        IntervalInstance([(0, 1)], 1.0, -1)


def test_neighborhood_query_examples():
    inst = three_interval_instance(1)
    assert neighborhood_query(inst, 2) == (2, 5.0)
    assert neighborhood_query(inst, 3) == (1, 4.0)
    assert neighborhood_query(inst, 1) == (1, 2.0)


def test_neighborhood_query_range_check():
    inst = three_interval_instance(1)
    with pytest.raises(IndexError):
        neighborhood_query(inst, 0)
    with pytest.raises(IndexError):
        neighborhood_query(inst, 4)


def test_neighborhood_query_matches_linear_scan():
    rng = random.Random(59)
    for _ in range(60):
        items, length, m = random_interval_case(rng)
        inst = IntervalInstance(items, length, m)
        for j in range(1, len(inst) + 1):
            count, weight = neighborhood_query(inst, j)
            ref_count, ref_weight = scan_neighborhood(inst, j)
            assert count == ref_count
            assert abs(weight - ref_weight) <= 1e-9


def test_solve_examples():
    best, points = solve_mwpihp(three_interval_instance(1))
    assert best == 5.0
    assert points == [1.0]
    best, points = solve_mwpihp(three_interval_instance(2))
    assert best == 9.0
    assert points == [1.0, 5.0]
    best, points = solve_mwpihp(three_interval_instance(0))
    assert best == 0.0 and points == []


def test_solve_empty_instance():
    best, points = solve_mwpihp(IntervalInstance([], 1.0, 3))
    assert best == 0.0 and points == []


def test_dp_table_monotone():
    rng = random.Random(61)
    for _ in range(40):
        items, length, m = random_interval_case(rng)
        table = dp_table(IntervalInstance(items, length, m))
        for j in range(1, len(table)):
            for k in range(m + 1):
                assert table[j][k] >= table[j - 1][k]
            for k in range(1, m + 1):
                assert table[j][k] >= table[j][k - 1]
        assert all(table[j][0] == 0.0 for j in range(len(table)))


def test_solve_matches_exhaustive_oracle():
    rng = random.Random(67)
    for _ in range(120):
        items, length, m = random_interval_case(rng)
        inst = IntervalInstance(items, length, m)
        best, points = solve_mwpihp(inst)
        assert abs(best - exact_mwpihp(inst)) <= 1e-9
        assert len(points) <= m
        assert abs(pierced_weight(inst, points) - best) <= 1e-9
        assert all(t in inst.lefts for t in points)


def test_solve_monotone_in_budget_and_weight():
    rng = random.Random(71)
    for _ in range(40):
        items, length, m = random_interval_case(rng)
        best_m, _ = solve_mwpihp(IntervalInstance(items, length, m))
        best_m1, _ = solve_mwpihp(IntervalInstance(items, length, m + 1))
        assert best_m1 >= best_m - 1e-12
        i = rng.randrange(len(items))
        bumped = list(items)
        bumped[i] = (bumped[i][0], bumped[i][1] + rng.uniform(0.0, 5.0))
        best_bumped, _ = solve_mwpihp(IntervalInstance(bumped, length, m))
        assert best_bumped >= best_m - 1e-12


def test_upper_bound_single_point():
    cfg = GridConfig(1.0, "square", 1)
    store = PointStore(cfg.cell_size, [Point(1, 3.0, 4.0, 7.0)])
    assert upper_bound_2d(store, cfg) == (7.0, 7.0, 7.0)


def test_upper_bound_straddle_instance():
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size, straddle_points())
    bound_x, bound_y, bound = upper_bound_2d(store, cfg)
    assert bound_x == 4.0 and bound_y == 4.0 and bound == 4.0


def test_upper_bound_separated_points():
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size, [Point(1, 0.0, 0.0, 2.0), Point(2, 5.0, 5.0, 3.0)])
    bound_x, bound_y, bound = upper_bound_2d(store, cfg)
    assert bound_x == 3.0 and bound_y == 3.0 and bound == 3.0


def test_upper_bound_empty_store():
    cfg = GridConfig(0.5, "square", 2)
    store = PointStore(cfg.cell_size)
    assert upper_bound_2d(store, cfg) == (0.0, 0.0, 0.0)


def test_upper_bound_dominates_opt_on_exact_boundary_instance():
    # regression: points sitting exactly 2*r_cov apart, where one square
    # covers two opposite corner points; the stab test must agree with the
    # square-coverage test at the last float bit or the bound undercuts
    r_cov = 1.3712636002890701
    side = 2 * r_cov
    pts = [
        Point(0, 1 * side, 3 * side, 2.8),
        Point(1, 2 * side, 2 * side, 7.3),
        Point(2, 2 * side, 5 * side, 6.5),
        Point(3, 3 * side, 3 * side, 5.4),
        Point(4, 2 * side, 5 * side, 2.3),
    ]
    cfg = GridConfig(r_cov, "square", 2)
    store = PointStore(cfg.cell_size, pts)
    opt = exact_square_opt(pts, r_cov, 2).opt_weight
    _, _, bound = upper_bound_2d(store, cfg)
    assert bound >= opt - 1e-9


def assert_matches_reference(items, length, m):
    inst = IntervalInstance(items, length, m)
    pairs, neigh, best, solved = reference_dp(items, length, m)
    assert inst.lefts == [l for l, _ in pairs]
    assert inst.weights == [w for _, w in pairs]
    assert [neighborhood_query(inst, j) for j in range(1, len(inst) + 1)] == neigh
    assert dp_table(inst) == best
    assert solve_mwpihp(inst) == solved


def test_vectorized_dp_equals_reference_list_dp():
    rng = random.Random(73)
    for n_max in [1, 2, 5, 12, 40] * 30 + [300] * 15:
        n = rng.randint(0, n_max)
        assert_matches_reference(*differential_case(rng, n), rng.randint(0, min(40, 3 * n + 1)))
    for n in (1_000, 10_000):
        assert_matches_reference(*differential_case(rng, n), rng.randint(30, 40))


def test_upper_bound_equals_reference_per_axis():
    rng = random.Random(79)
    for n_max in [0, 1, 3, 10, 60] * 8 + [2000] * 2:
        xs, length = differential_case(rng, rng.randint(0, n_max))
        m = rng.randint(1, 40)
        pts = [Point(i, x, rng.choice([x, rng.uniform(-50.0, 50.0)]), w) for i, (x, w) in enumerate(xs)]
        cfg = GridConfig(length / 2.0, "square", m)
        got = upper_bound_2d(PointStore(cfg.cell_size, pts), cfg)
        assert all(type(v) is float for v in got)
        bound_x = reference_dp([(p.x, p.w) for p in pts], length, m)[3][0]
        bound_y = reference_dp([(p.y, p.w) for p in pts], length, m)[3][0]
        assert got == (bound_x, bound_y, min(bound_x, bound_y))


def test_budget_past_n_stops_early_with_the_same_answer():
    rng = random.Random(83)
    for n_max in [1, 5, 30, 200] * 10:
        n = rng.randint(1, n_max)
        items, length = differential_case(rng, n)
        assert solve_mwpihp(IntervalInstance(items, length, 10 * n)) == solve_mwpihp(IntervalInstance(items, length, n))


def test_window_weights_past_float_range_stay_exact_per_window():
    # the prefix sum 1e308 + 1e308 overflows; each window still fits
    inst = IntervalInstance([(0.0, 1e308), (5.0, 1e308)], 1.0, 1)
    assert neighborhood_query(inst, 1) == (1, 1e308)
    assert neighborhood_query(inst, 2) == (1, 1e308)
    assert solve_mwpihp(inst) == (1e308, [0.0])
    best, _ = solve_mwpihp(IntervalInstance([(0.0, 1e308), (5.0, 1e308)], 1.0, 2))
    assert best == float("inf")  # the true optimum 2e308 is past the float range
