import dataclasses
import math
import random

import pytest

from conftest import random_trace
from swarmcover import (
    CoverageState,
    DuplicateIdError,
    Event,
    GridConfig,
    Point,
    PointStore,
    UnknownIdError,
    build,
    cell_geometry,
    cell_key,
    static_place,
)


def two_cell_state(m=1):
    """Covered A=(0,0):10, uncovered B=(2,0):7."""
    cfg = GridConfig(0.5, "square", m)
    state = build([Point("a", 0.5, 0.5, 10.0), Point("b", 2.5, 0.5, 7.0)], cfg)
    return state, cell_key(0, 0), cell_key(2, 0)


def test_build_top2_of_three_cells():
    cfg = GridConfig(0.5, "square", 2)
    state = build(
        [Point(1, 0.5, 0.5, 3.0), Point(2, 2.5, 0.5, 5.0), Point(3, 4.5, 0.5, 1.0)], cfg
    )
    assert state.covered_weight() == 8.0
    assert set(state.assignment) == {cell_key(0, 0), cell_key(2, 0)}


def test_build_empty_and_single_cell():
    cfg = GridConfig(0.5, "square", 2)
    state = build([], cfg)
    assert state.covered_weight() == 0.0
    assert state.placements().cells[0] is None

    state = build([Point(i, 0.1 * i, 0.05, 1.0) for i in range(5)], cfg)
    assert len(state.assignment) == 1
    assert state.covered_weight() == 5.0


def test_build_rejects_duplicate_ids():
    cfg = GridConfig(0.5, "square", 1)
    with pytest.raises(DuplicateIdError):
        build([Point(1, 0, 0, 1.0), Point(1, 1, 1, 2.0)], cfg)


def test_update_raises_uncovered_above_min_swaps():
    state, key_a, key_b = two_cell_state()
    report = state.apply(Event.update("b", 12.0))
    assert report.moved
    assert report.vacated == key_a
    assert report.occupied == key_b
    assert report.covered_weight_after == 12.0


def test_update_below_min_does_not_swap():
    state, _, _ = two_cell_state()
    report = state.apply(Event.update("b", 9.0))
    assert not report.moved
    assert report.covered_weight_after == 10.0


def test_delete_evicting_covered_relocates():
    state, key_a, key_b = two_cell_state()
    report = state.apply(Event.delete("a"))
    assert report.moved
    assert report.vacated == key_a
    assert report.occupied == key_b
    assert report.covered_weight_after == 7.0


def test_delete_evicting_last_cell_parks_drone():
    cfg = GridConfig(0.5, "square", 1)
    state = build([Point("a", 0.5, 0.5, 4.0)], cfg)
    report = state.apply(Event.delete("a"))
    assert report.moved
    assert report.occupied is None
    assert report.covered_weight_after == 0.0
    assert state.placements().cells[0] is None


def test_new_cell_occupied_by_parked_drone():
    cfg = GridConfig(0.5, "square", 2)
    state = build([Point("a", 0.5, 0.5, 4.0)], cfg)
    report = state.apply(Event.insert("b", 2.5, 0.5, 1.0))
    assert report.moved
    assert report.vacated is None
    assert report.occupied == cell_key(2, 0)
    assert report.covered_weight_after == 5.0


def test_update_dropping_covered_cell_swaps_itself_out():
    # covered {A:10, B:8}, uncovered {C:7}; dropping A to 5 makes A the new
    # lightest covered cell and C must take its drone
    cfg = GridConfig(0.5, "square", 2)
    state = build(
        [Point("a", 0.5, 0.5, 10.0), Point("b", 2.5, 0.5, 8.0), Point("c", 4.5, 0.5, 7.0)],
        cfg,
    )
    report = state.apply(Event.update("a", 5.0))
    assert report.moved
    assert report.vacated == cell_key(0, 0)
    assert report.occupied == cell_key(4, 0)
    assert report.covered_weight_after == 15.0


def test_tie_does_not_swap():
    state, _, _ = two_cell_state()
    report = state.apply(Event.update("b", 10.0))
    assert not report.moved
    assert report.covered_weight_after == 10.0


def test_apply_preconditions_leave_state_untouched():
    state, _, _ = two_cell_state()
    before = dict(state.assignment)
    with pytest.raises(UnknownIdError):
        state.apply(Event.delete("zz"))
    with pytest.raises(DuplicateIdError):
        state.apply(Event.insert("a", 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        state.apply(Event.update("a", -3.0))
    with pytest.raises(ValueError):
        state.apply(Event.update("a", None))
    with pytest.raises(ValueError):
        state.apply(Event("noop", "a"))
    assert state.assignment == before
    assert state.covered_weight() == 10.0


def test_min_covered_max_uncovered():
    cfg = GridConfig(0.5, "square", 2)
    state = build(
        [Point(1, 0.5, 0.5, 10.0), Point(2, 2.5, 0.5, 4.0), Point(3, 4.5, 0.5, 2.0)], cfg
    )
    key, weight = state.min_covered()
    assert (key, weight) == (cell_key(2, 0), 4.0)
    key, weight = state.max_uncovered()
    assert (key, weight) == (cell_key(4, 0), 2.0)

    empty = build([], GridConfig(0.5, "square", 1))
    assert empty.min_covered() is None
    assert empty.max_uncovered() is None


def test_extrema_tie_break_by_key():
    cfg = GridConfig(0.5, "square", 2)
    state = build([Point(1, 0.5, 0.5, 4.0), Point(2, 2.5, 0.5, 4.0)], cfg)
    # both covered with equal weight: min ties to the smaller key
    assert state.min_covered()[0] == min(cell_key(0, 0), cell_key(2, 0))


def test_placements_geometry():
    cfg = GridConfig(0.5, "square", 2)
    state = build([Point(1, 0.5, 0.5, 2.0)], cfg)
    placement = state.placements()
    covered = [key for key in placement.cells if key is not None]
    parked = [key for key in placement.cells if key is None]
    assert len(covered) == 1 and len(parked) == 1
    g = cell_geometry(covered[0], cfg)
    assert (g.min_x, g.min_y, g.side) == (0.0, 0.0, 1.0)


def test_dynamic_matches_static_bit_exact_on_random_traces():
    rng = random.Random(47)
    for _ in range(10):
        shape = rng.choice(["square", "disk"])
        cfg = GridConfig(rng.uniform(0.3, 1.5), shape, rng.randint(1, 5))
        points, events = random_trace(rng, rng.randint(0, 40), 300, extent=7.0)
        state = build(points, cfg)
        for e in events:
            before = dict(state.assignment)
            report = state.apply(e)
            after = state.assignment
            expected = static_place(state.store, cfg).covered_weight
            assert report.covered_weight_after == expected  # bit-exact
            assert state.covered_weight() == expected
            # at most one drone moved
            moved_drones = set()
            for key in before.keys() - after.keys():
                moved_drones.add(before[key])
            for key in after.keys() - before.keys():
                moved_drones.add(after[key])
            for key in before.keys() & after.keys():
                if before[key] != after[key]:
                    moved_drones.add(before[key])
                    moved_drones.add(after[key])
            assert len(moved_drones) <= 1
            assert report.moved == bool(moved_drones)


def _reweighted(rng, points, events, weights):
    """The same trace with every weight drawn from ``weights``."""
    points = [Point(p.id, p.x, p.y, rng.choice(weights)) for p in points]
    events = [e if e.w is None else dataclasses.replace(e, w=rng.choice(weights)) for e in events]
    return points, events


def test_pool_weights_match_store_aggregates_exactly():
    rng = random.Random(53)
    cfg = GridConfig(0.5, "square", 4)
    points, events = random_trace(rng, 30, 500, extent=5.0)
    # the same trace with weights whose float sums lose the smaller terms:
    # a running float total of the covered weight drifts on it
    cases = [(cfg, points, events), (cfg, *_reweighted(rng, points, events, (1e300, 1e16, 1.0, 5e-324, 0.0)))]
    # the cell weight drifts to -1.0 while its one point weighs 1.0; the new
    # 0.0 cell must then take its drone
    drift = [Point(1, 0.5, 0.5, 1e16), Point(2, 0.5, 0.5, 1.0), Point(3, 0.5, 0.5, 1.0)]
    cases.append(
        (GridConfig(0.5, "square", 1), drift, [Event.delete(1), Event.delete(2), Event.insert(4, 5.5, 5.5, 0.0)])
    )
    for i in range(200):
        cfg = GridConfig(0.5, ("square", "disk")[i % 2], (1, 2, 3, 5, 40)[i // 2 % 5])
        points, events = random_trace(rng, rng.randint(1, 20), 300, extent=3.0)
        cases.append((cfg, *_reweighted(rng, points, events, (1e16, 1.0, 5e-324, 0.0, -0.0))))
    for cfg, points, events in cases:
        state = build(points, cfg)
        for e in events:
            state.apply(e)
            cells = state.store.cells
            mc = state.min_covered()
            if mc is not None:
                assert cells[mc[0]].weight == mc[1]
            mu = state.max_uncovered()
            if mu is not None:
                assert cells[mu[0]].weight == mu[1]
            if mc is not None and mu is not None:
                assert mc[1] >= mu[1]
            assert len(state.assignment) == min(cfg.m, len(cells))
            assert state.covered_weight() == math.fsum(cells[key].weight for key in state.assignment)
            assert state.covered_weight() == static_place(state.store, cfg).covered_weight


def test_repair_reads_only_the_extremum_the_event_can_cross(monkeypatch):
    # covered {A:10, B:8}, uncovered {C:7, D:3}; no event below moves a drone
    cfg = GridConfig(0.5, "square", 2)
    state = build(
        [Point("a", 0.5, 0.5, 10.0), Point("b", 2.5, 0.5, 8.0), Point("c", 4.5, 0.5, 7.0), Point("d", 6.5, 0.5, 3.0)],
        cfg,
    )
    calls = []
    for name in ("min_covered", "max_uncovered"):
        def counted(name=name, real=getattr(state, name)):
            calls.append(name)
            return real()

        monkeypatch.setattr(state, name, counted)

    def peeks(event):
        calls.clear()
        assert not state.apply(event).moved
        return calls

    assert peeks(Event.update("a", 11.0)) == []  # covered, weight up
    assert peeks(Event.insert("a2", 0.6, 0.6, 1.0)) == []
    assert peeks(Event.update("d", 2.0)) == []  # uncovered, weight down
    assert peeks(Event.delete("d")) == []  # uncovered, evicted
    assert peeks(Event.update("a", 7.5)) == ["max_uncovered"]  # covered, weight down
    assert peeks(Event.delete("a2")) == ["max_uncovered"]
    assert peeks(Event.update("c", 7.5)) == ["min_covered"]  # uncovered, weight up
    assert peeks(Event.insert("e", 8.5, 0.5, 1.0)) == ["min_covered"]  # uncovered, new


def test_state_from_existing_store_requires_matching_cell_size():
    store = PointStore(1.0)
    with pytest.raises(ValueError):
        CoverageState(store, GridConfig(0.7, "square", 1))


def test_insert_event_must_carry_coordinates():
    state, _, _ = two_cell_state()
    with pytest.raises(ValueError):
        state.apply(Event("insert", "x"))
    assert state.covered_weight() == 10.0


def test_heavy_churn_on_tiny_instance_stays_exact():
    # two cells, one drone: thousands of updates force repeated pruning and
    # heap rebuilds, and the structure must keep matching a fresh placement
    rng = random.Random(111)
    cfg = GridConfig(0.5, "square", 1)
    state = build([Point("a", 0.5, 0.5, 5.0), Point("b", 2.5, 0.5, 5.0)], cfg)
    for _ in range(3000):
        pid = rng.choice(["a", "b"])
        report = state.apply(Event.update(pid, rng.uniform(0.0, 10.0)))
        assert report.covered_weight_after == static_place(state.store, cfg).covered_weight
    assert len(state._heap_min) <= 4 * 1 + 64 + 1
    assert len(state._heap_max) <= 4 * 1 + 64 + 1


def test_cell_weight_overflow_rejected_before_any_mutation():
    cfg = GridConfig(0.5, "square", 1)
    state = build([Point("a", 0.5, 0.5, 1e308), Point("b", 0.6, 0.6, 1.0), Point("c", 2.5, 0.5, 5.0)], cfg)

    def snapshot():
        cells = {key: (agg.weight, agg.count) for key, agg in state.store.cells.items()}
        points = {pid: (p.x, p.y, p.w) for pid, p in state.store.points.items()}
        return cells, points, dict(state.assignment), state.covered_weight(), state.min_covered(), state.max_uncovered()

    before = snapshot()
    with pytest.raises(ValueError):
        state.apply(Event.insert("d", 0.7, 0.7, 1e308))
    with pytest.raises(ValueError):
        state.apply(Event.update("b", 1e308))
    with pytest.raises(ValueError):
        state.store.insert(Point("d", 0.7, 0.7, 1e308))
    assert snapshot() == before
    # the cell weight never reaches inf, so deleting the heavy point recovers it
    assert state.apply(Event.delete("a")).covered_weight_after == 5.0


def test_update_leaves_callers_point_unchanged():
    p = Point(1, 0.5, 0.5, 3.0)
    state = build([p], GridConfig(0.5, "square", 1))
    state.apply(Event.update(1, 7.0))
    assert p.w == 3.0
    assert state.store.points[1].w == 7.0
    assert state.covered_weight() == 7.0


def test_covered_total_past_float_range_raises_until_back_in_range():
    # each cell weight is finite; the two covered together are not
    cfg = GridConfig(0.5, "square", 2)
    state = build([Point("a", 0.5, 0.5, 1e308), Point("b", 2.5, 0.5, 1e308)], cfg)
    with pytest.raises(OverflowError):
        state.covered_weight()
    with pytest.raises(OverflowError):
        state.apply(Event.insert("c", 4.5, 0.5, 1.0))
    with pytest.raises(OverflowError):
        state.covered_weight()  # never a stale float
    assert state.apply(Event.delete("a")).covered_weight_after == 1e308 + 1.0
    assert state.covered_weight() == math.fsum(state.store.cells[key].weight for key in state.assignment)


def test_int_weights_are_taken_as_floats_so_dynamic_equals_static():
    # fsum rounds an int to a float first; the exact covered total must see that same float
    cfg = GridConfig(0.5, "square", 3)
    state = build([Point(i, i + 0.5, 0.5, 2**53 + 1) for i in range(3)], cfg)
    assert all(type(agg.weight) is float for agg in state.store.cells.values())
    assert repr(state.covered_weight()) == repr(static_place(state.store, cfg).covered_weight) == "2.7021597764222976e+16"
    state.apply(Event.update(0, 2**53 + 3))
    assert type(state.store.cells[cell_key(0, 0)].weight) is float
    assert repr(state.covered_weight()) == repr(static_place(state.store, cfg).covered_weight)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: cell weights are running float sums that drift")
def test_cell_weight_is_exact_after_the_heavy_point_leaves():
    cfg = GridConfig(0.5, "square", 1)
    state = build([Point(1, 0.5, 0.5, 1e16), Point(2, 0.5, 0.5, 1.0), Point(3, 0.5, 0.5, 1.0)], cfg)
    state.apply(Event.delete(1))
    state.apply(Event.delete(2))
    assert state.covered_weight() == 1.0
