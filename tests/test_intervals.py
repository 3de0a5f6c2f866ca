import random

import pytest

from conftest import make_store, random_interval_case, straddle_points
from swarmcover import (
    GridConfig,
    IntervalInstance,
    Point,
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
    store = make_store([Point(1, 3.0, 4.0, 7.0)], cfg.cell_size)
    assert upper_bound_2d(store, cfg) == (7.0, 7.0, 7.0)


def test_upper_bound_straddle_instance():
    cfg = GridConfig(0.5, "square", 1)
    store = make_store(straddle_points(), cfg.cell_size)
    bound_x, bound_y, bound = upper_bound_2d(store, cfg)
    assert bound_x == 4.0 and bound_y == 4.0 and bound == 4.0


def test_upper_bound_separated_points():
    cfg = GridConfig(0.5, "square", 1)
    store = make_store(
        [Point(1, 0.0, 0.0, 2.0), Point(2, 5.0, 5.0, 3.0)], cfg.cell_size
    )
    bound_x, bound_y, bound = upper_bound_2d(store, cfg)
    assert bound_x == 3.0 and bound_y == 3.0 and bound == 3.0


def test_upper_bound_empty_store():
    cfg = GridConfig(0.5, "square", 2)
    store = make_store([], cfg.cell_size)
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
    store = make_store(pts, cfg.cell_size)
    opt = exact_square_opt(pts, r_cov, 2).opt_weight
    _, _, bound = upper_bound_2d(store, cfg)
    assert bound >= opt - 1e-9
