"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the criterion
lines (pytest captures stdout otherwise). The latency criterion builds a
million-point instance and takes the longest.
"""

import functools
import random
import statistics
import time

from conftest import (
    random_disk_case,
    random_events,
    random_interval_case,
    random_points,
    random_square_case,
    random_trace,
    straddle_points,
)
from swarmcover import (
    GridConfig,
    IntervalInstance,
    PointStore,
    build,
    cantor_pair,
    cell_key,
    exact_disk_opt,
    exact_mwpihp,
    exact_square_opt,
    neighborhood_query,
    solve_mwpihp,
    static_place,
    static_place_4m,
    upper_bound_2d,
)

TOL = 1e-9


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {title}", flush=True)
                raise
            print(f"criterion {number} PASS: {title}", flush=True)
        return run
    return wrap


@functools.lru_cache(maxsize=1)
def square_cases():
    """500 oracle-sized square instances with their exact optima."""
    rng = random.Random(20260808)
    cases = []
    for _ in range(500):
        points, r_cov, m = random_square_case(rng)
        opt = exact_square_opt(points, r_cov, m).opt_weight
        cases.append((tuple(points), r_cov, m, opt))
    return cases


@criterion(1, "cantor pairing matches the closed form; cell keys injective for |a|,|b| <= 1000")
def test_criterion_1_pairing():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 2) == 8
    assert cantor_pair(2, 1) == 7
    rng = random.Random(1)
    for _ in range(5000):
        a, b = rng.randrange(0, 5000), rng.randrange(0, 5000)
        assert cantor_pair(a, b) == (a + b + 1) * (a + b) // 2 + b
    seen = set()
    add = seen.add
    for a in range(-1000, 1001):
        for b in range(-1000, 1001):
            add(cell_key(a, b))
    assert len(seen) == 2001 * 2001


@criterion(2, "square heuristic >= OPT/4 on 500 random instances; straddle witness hits 1/4 exactly")
def test_criterion_2_static_square_ratio():
    for points, r_cov, m, opt in square_cases():
        cfg = GridConfig(r_cov, "square", m)
        sol = static_place(PointStore(cfg.cell_size, points), cfg).covered_weight
        assert sol >= 0.25 * opt - TOL, (sol, opt, r_cov, m)
    witness = straddle_points()
    cfg = GridConfig(0.5, "square", 1)
    sol = static_place(PointStore(cfg.cell_size, witness), cfg).covered_weight
    opt = exact_square_opt(witness, 0.5, 1).opt_weight
    assert sol / opt == 0.25


@criterion(3, "disk heuristic >= OPT/7 on 300 random instances")
def test_criterion_3_static_disk_ratio():
    rng = random.Random(3)
    for _ in range(300):
        points, r_cov, m = random_disk_case(rng)
        cfg = GridConfig(r_cov, "disk", m)
        sol = static_place(PointStore(cfg.cell_size, points), cfg).covered_weight
        opt = exact_disk_opt(points, r_cov, m).opt_weight
        assert sol >= opt / 7.0 - TOL, (sol, opt, r_cov, m)


@criterion(4, "quadrupled drone budget reaches the exact square optimum on the criterion-2 instances")
def test_criterion_4_4m_dominance():
    for points, r_cov, m, opt in square_cases():
        cfg = GridConfig(r_cov, "square", m)
        sol = static_place_4m(PointStore(cfg.cell_size, points), cfg).covered_weight
        assert sol >= opt - TOL, (sol, opt, r_cov, m)


@criterion(5, "dynamic covered weight equals a static recomputation bit-exactly over 50x1000-event traces; <= 1 move per event")
def test_criterion_5_dynamic_equals_static():
    rng = random.Random(5)
    for t in range(50):
        shape = "square" if t % 2 == 0 else "disk"
        cfg = GridConfig(rng.uniform(0.3, 1.2), shape, rng.randint(1, 6))
        points, events = random_trace(rng, rng.randint(0, 50), 1000, extent=6.0)
        state = build(points, cfg)
        for e in events:
            before = dict(state.assignment)
            report = state.apply(e)
            expected = static_place(state.store, cfg).covered_weight
            assert report.covered_weight_after == expected
            assert state.covered_weight() == expected
            changed = {
                drone
                for key in before.keys() | state.assignment.keys()
                if before.get(key) != state.assignment.get(key)
                for drone in (before.get(key), state.assignment.get(key))
                if drone is not None
            }
            assert len(changed) <= 1


@criterion(6, "dynamic covered weight stays >= OPT/4 (squares) and >= OPT/7 (disks) at every trace step")
def test_criterion_6_dynamic_ratio():
    rng = random.Random(6)
    for shape, factor, max_pts, steps in (
        ("square", 0.25, 12, 300),
        ("square", 0.25, 12, 300),
        ("disk", 1.0 / 7.0, 10, 200),
        ("disk", 1.0 / 7.0, 10, 200),
    ):
        m = rng.randint(1, 3) if shape == "square" else rng.randint(1, 2)
        cfg = GridConfig(rng.uniform(0.3, 1.2), shape, m)
        points, events = random_trace(rng, max_pts - 4, steps, extent=5.0, max_points=max_pts)
        state = build(points, cfg)
        for e in events:
            report = state.apply(e)
            live = list(state.store.points.values())
            if shape == "square":
                opt = exact_square_opt(live, cfg.r_cov, m).opt_weight
            else:
                opt = exact_disk_opt(live, cfg.r_cov, m).opt_weight
            assert report.covered_weight_after >= factor * opt - TOL, (shape, opt)


@criterion(7, "piercing DP equals brute force on 500 instances; projection bound dominates the square optimum")
def test_criterion_7_dp_and_bound():
    rng = random.Random(7)
    for _ in range(500):
        items, length, m = random_interval_case(rng)
        inst = IntervalInstance(items, length, m)
        best, _ = solve_mwpihp(inst)
        assert abs(best - exact_mwpihp(inst)) <= TOL
    for points, r_cov, m, opt in square_cases():
        cfg = GridConfig(r_cov, "square", m)
        store = PointStore(cfg.cell_size, points)
        _, _, bound = upper_bound_2d(store, cfg)
        assert bound >= opt - TOL, (bound, opt)


CRITERION_8_CONFIG = GridConfig(0.5, "square", 8)


def criterion_8_inputs(n):
    """(points, 1e4 events) for one size: about 8 points per cell of a square region."""
    cell_size = CRITERION_8_CONFIG.cell_size
    extent = max(cell_size, cell_size * (n / 8.0) ** 0.5)
    return random_points(n, 2026, extent), random_events(n, 10**4, 2027, extent)


@criterion(8, "per-event median < 10 us at n up to 1e6, growth < 20x from n=1e3, million-point build < 30 s")
def test_criterion_8_logarithmic_updates():
    rows = []  # (n, build seconds, median us, p99 us)
    clock = time.perf_counter_ns
    for n in [10**3, 10**4, 10**5, 10**6]:
        points, events = criterion_8_inputs(n)
        t0 = time.perf_counter()
        state = build(points, CRITERION_8_CONFIG)
        build_seconds = time.perf_counter() - t0
        latencies_ns = []
        for event in events:
            t = clock()
            state.apply(event)
            latencies_ns.append(clock() - t)
        latencies_ns.sort()
        median_us = statistics.median(latencies_ns) / 1e3
        p99_us = latencies_ns[int(0.99 * (len(latencies_ns) - 1))] / 1e3
        rows.append((n, build_seconds, median_us, p99_us))
    medians = [median_us for _, _, median_us, _ in rows]
    assert max(medians) < 10.0, rows
    assert medians[-1] < 20.0 * medians[0], (rows[0], rows[-1])
    assert rows[-1][1] < 30.0, rows[-1]
    print("  latency:")
    for n, build_seconds, median_us, p99_us in rows:
        print(f"  n={n} build={build_seconds:.2f}s median={median_us:.2f}us p99={p99_us:.2f}us")


@criterion(9, "neighborhood query equals a linear scan at every position of 100 random instances")
def test_criterion_9_neighborhood_query():
    rng = random.Random(9)
    for _ in range(100):
        items, length, m = random_interval_case(rng)
        inst = IntervalInstance(items, length, m)
        for j in range(1, len(inst) + 1):
            lj = inst.lefts[j - 1]
            count, weight = 0, 0.0
            for l, w in zip(inst.lefts[:j], inst.weights[:j]):
                if l <= lj <= l + length:
                    count += 1
                    weight += w
            got_count, got_weight = neighborhood_query(inst, j)
            assert got_count == count
            assert abs(got_weight - weight) <= TOL
