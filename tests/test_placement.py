import math
import random
from itertools import combinations

import pytest

from conftest import random_square_case, straddle_points
from swarmcover import (
    GUARANTEE,
    CoverageState,
    DiskGeometry,
    GridConfig,
    Point,
    PointStore,
    SquareGeometry,
    cell_geometry,
    cell_index,
    cell_key,
    exact_square_opt,
    rank_cells,
    static_place,
    static_place_4m,
)


def three_cell_store():
    cfg = GridConfig(0.5, "square", 2)
    store = PointStore(cfg.cell_size)
    store.insert(Point(1, 0.5, 0.5, 3.0))
    store.insert(Point(2, 2.5, 0.5, 5.0))
    store.insert(Point(3, 4.5, 0.5, 1.0))
    return store, cfg


def test_static_place_example_top2():
    store, cfg = three_cell_store()
    placement = static_place(store, cfg)
    assert placement.covered_weight == 8.0
    assert list(placement.cells) == [cell_key(2, 0), cell_key(0, 0)]


def test_static_place_more_drones_than_cells():
    store, _ = three_cell_store()
    cfg = GridConfig(0.5, "square", 5)
    placement = static_place(store, cfg)
    assert placement.covered_weight == 9.0
    parked = [i for i, key in enumerate(placement.cells) if key is None]
    assert len(parked) == 2
    assert parked == [3, 4]  # surplus drones carry no cell, so no geometry


def test_static_place_empty_store():
    cfg = GridConfig(0.5, "square", 3)
    placement = static_place(PointStore(cfg.cell_size), cfg)
    assert placement.covered_weight == 0.0
    assert placement.cells == (None, None, None)


def test_static_place_rejects_mismatched_store():
    store, _ = three_cell_store()
    with pytest.raises(ValueError):
        static_place(store, GridConfig(0.7, "square", 2))


def test_tie_break_is_smaller_key():
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size)
    store.insert(Point(1, 0.5, 0.5, 4.0))
    store.insert(Point(2, 2.5, 0.5, 4.0))
    placement = static_place(store, cfg)
    assert placement.cells[0] == min(cell_key(0, 0), cell_key(2, 0))


def test_square_geometry_coincides_with_cell():
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size)
    store.insert(Point(1, 2.5, 0.5, 5.0))
    g = cell_geometry(static_place(store, cfg).cells[0], cfg)
    assert isinstance(g, SquareGeometry)
    assert (g.min_x, g.min_y, g.side) == (2.0, 0.0, 1.0)


def test_disk_geometry_circumscribes_cell():
    cfg = GridConfig(1.0, "disk", 1)
    store = PointStore(cfg.cell_size)
    store.insert(Point(1, 0.5, 0.5, 5.0))
    g = cell_geometry(static_place(store, cfg).cells[0], cfg)
    assert isinstance(g, DiskGeometry)
    root2 = math.sqrt(2.0)
    assert g.center_x == pytest.approx(root2 / 2)
    assert g.center_y == pytest.approx(root2 / 2)
    assert g.radius == 1.0


def test_cell_geometry_comes_from_the_key():
    square = GridConfig(0.5, "square", 1)
    assert cell_geometry(cell_key(-3, 2), square) == SquareGeometry(-3.0, 2.0, 1.0)
    disk = GridConfig(1.0, "disk", 1)
    r = disk.cell_size
    assert cell_geometry(cell_key(4, -7), disk) == DiskGeometry(4.5 * r, -6.5 * r, 1.0)


def test_disk_contains_all_cell_members():
    rng = random.Random(31)
    for _ in range(50):
        cfg = GridConfig(rng.uniform(0.4, 2.0), "disk", rng.randint(1, 4))
        store = PointStore(cfg.cell_size)
        keys = {}
        for i in range(rng.randint(1, 30)):
            p = Point(i, rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 5))
            keys[i] = store.insert(p)[0]
            assert keys[i] == cell_key(*cell_index(p.x, p.y, cfg.cell_size))
        placement = static_place(store, cfg)
        for cell in placement.cells:
            if cell is None:
                continue
            g = cell_geometry(cell, cfg)
            for p in store.points.values():
                if keys[p.id] == cell:
                    dist = math.hypot(p.x - g.center_x, p.y - g.center_y)
                    assert dist <= cfg.r_cov + 1e-9


def test_selection_is_optimal_over_cells():
    rng = random.Random(37)
    for _ in range(50):
        cfg = GridConfig(rng.uniform(0.3, 1.5), "square", rng.randint(1, 5))
        store = PointStore(cfg.cell_size)
        for i in range(rng.randint(0, 40)):
            store.insert(Point(i, rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 10)))
        placement = static_place(store, cfg)
        weights = sorted((agg.weight for agg in store.cells.values()), reverse=True)
        want = math.fsum(sorted(weights[: cfg.m]))
        assert placement.covered_weight == pytest.approx(want, abs=1e-9)


def test_chosen_square_centers_are_apart():
    rng = random.Random(41)
    for _ in range(30):
        cfg = GridConfig(rng.uniform(0.3, 1.5), "square", rng.randint(2, 5))
        store = PointStore(cfg.cell_size)
        for i in range(rng.randint(5, 40)):
            store.insert(Point(i, rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 10)))
        placement = static_place(store, cfg)
        chosen = [key for key in placement.cells if key is not None]
        assert len(set(chosen)) == len(chosen)
        centers = [
            (g.min_x + g.side / 2, g.min_y + g.side / 2)
            for g in (cell_geometry(key, cfg) for key in chosen)
        ]
        for (x1, y1), (x2, y2) in combinations(centers, 2):
            assert math.hypot(x1 - x2, y1 - y2) >= 2 * cfg.r_cov - 1e-9


def test_straddle_witness_ratio_is_exactly_quarter():
    points = straddle_points()
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size, points)
    sol = static_place(store, cfg).covered_weight
    opt = exact_square_opt(points, 0.5, 1).opt_weight
    assert sol == 1.0
    assert opt == 4.0
    assert sol / opt == 0.25


def test_ratio_certificate_factors():
    store, cfg = three_cell_store()
    placement = static_place(store, cfg)
    assert placement.covered_weight == 8.0
    assert GUARANTEE[placement.config.shape] == 0.25
    disk_cfg = GridConfig(1.0, "disk", 1)
    disk_store = PointStore(disk_cfg.cell_size)
    disk_store.insert(Point(1, 0.1, 0.1, 2.0))
    assert GUARANTEE[static_place(disk_store, disk_cfg).config.shape] == 1.0 / 7.0


def test_static_place_4m_dominates_opt():
    points = straddle_points()
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size, points)
    placement = static_place_4m(store, cfg)
    assert placement.covered_weight == 4.0
    assert len(placement.cells) == 4

    rng = random.Random(43)
    for _ in range(40):
        pts, r_cov, m = random_square_case(rng)
        cfg = GridConfig(r_cov, "square", m)
        st = PointStore(cfg.cell_size, pts)
        opt = exact_square_opt(pts, r_cov, m).opt_weight
        assert static_place_4m(st, cfg).covered_weight >= opt - 1e-9


def test_static_place_4m_single_point():
    cfg = GridConfig(0.5, "square", 1)
    store = PointStore(cfg.cell_size)
    store.insert(Point(1, 0.2, 0.2, 7.0))
    placement = static_place_4m(store, cfg)
    assert placement.covered_weight == 7.0
    assert sum(1 for key in placement.cells if key is not None) == 1


def test_static_place_4m_rejects_disks():
    cfg = GridConfig(1.0, "disk", 1)
    with pytest.raises(ValueError):
        static_place_4m(PointStore(cfg.cell_size), cfg)


def sorted_cells(store):
    """Reference ranking: every live cell, fully sorted by (-weight, key)."""
    return sorted(((key, agg.weight) for key, agg in store.cells.items()), key=lambda kw: (-kw[1], kw[0]))


ONE_UP = math.nextafter(1.0, math.inf)
RANK_WEIGHTS = {
    "ties": [3.0, 1.0, 3.0, 3.0, 1.0, 2.0, 3.0, 1.0],
    "signed_zeros": [0.0, -0.0, 1.0, -0.0, 0.0, 0.0, -0.0, 2.0, -0.0],
    "subnormals": [5e-324, 1e-323, 0.0, 5e-324, 2.2250738585072014e-308, -0.0, 5e-324],
    "one_ulp_apart": [1.0, ONE_UP, math.nextafter(1.0, 0.0), 1.0, math.nextafter(ONE_UP, math.inf), ONE_UP],
    "empty": [],
}


def one_point_per_cell(weights, cell_size, seed=0):
    """A store with one point of each weight, each alone in its cell; the
    cells are shuffled over a grid so key order is not insertion order."""
    side = math.isqrt(len(weights)) + 1
    cells = [(a, b) for a in range(-side, side) for b in range(-side, side)]
    random.Random(seed).shuffle(cells)
    return PointStore(cell_size, [Point(i, (a + 0.5) * cell_size, (b + 0.5) * cell_size, w)
                                  for i, (w, (a, b)) in enumerate(zip(weights, cells))])


@pytest.mark.parametrize("family", sorted(RANK_WEIGHTS))
def test_rank_cells_top_k_is_the_full_sorts_prefix(family):
    store = one_point_per_cell(RANK_WEIGHTS[family], 1.0)
    full = [repr(kw) for kw in sorted_cells(store)]  # repr tells 0.0 from -0.0
    assert [repr(kw) for kw in rank_cells(store)] == full
    for k in range(len(store.cells) + 3):
        assert [repr(kw) for kw in rank_cells(store, k)] == full[:k], k


@pytest.mark.parametrize("shape", ["square", "disk"])
@pytest.mark.parametrize("family", sorted(set(RANK_WEIGHTS) - {"empty"}))
def test_coverage_state_setup_matches_a_full_sort(shape, family):
    cell_size = GridConfig(0.5, shape, 1).cell_size
    store = one_point_per_cell(RANK_WEIGHTS[family], cell_size, seed=7)
    ranked = sorted_cells(store)
    c = len(ranked)
    for m in (1, c - 1, c, c + 3):
        state = CoverageState(store, GridConfig(0.5, shape, m))
        k = min(m, c)
        assert list(state.assignment.items()) == [(key, i) for i, (key, _) in enumerate(ranked[:k])]
        assert state._parked == list(range(k, m))
        assert repr(state.covered_weight()) == repr(math.fsum(w for _, w in ranked[:k]))
        assert sorted(map(repr, state._heap_min)) == sorted(repr((w, key)) for key, w in ranked[:k])
        assert sorted(map(repr, state._heap_max)) == sorted(repr((-w, -key)) for key, w in ranked[k:])
