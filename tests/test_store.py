import math
import random
import sys
import warnings

import pytest

from conftest import random_trace
from swarmcover import (
    DuplicateIdError,
    Point,
    PointStore,
    UnknownIdError,
    cell_index,
    cell_key,
    cell_key_to_index,
)


def test_insert_examples():
    store = PointStore(1.0)
    key = cell_key(0, 0)
    assert store.insert(Point(1, 0.5, 0.5, 3.0)) == (key, 0.0, 3.0)
    assert store.cells[key].count == 1

    assert store.insert(Point(2, 0.9, 0.1, 2.0)) == (key, 3.0, 5.0)
    assert store.cells[key].count == 2

    assert store.insert(Point(3, -0.5, 0.5, 1.0)) == (cell_key(-1, 0), 0.0, 1.0)


def test_insert_duplicate_and_invalid():
    store = PointStore(1.0)
    store.insert(Point(1, 0.0, 0.0, 1.0))
    before = (dict(store.points), {key: (agg.weight, agg.count) for key, agg in store.cells.items()})
    with pytest.raises(DuplicateIdError):
        store.insert(Point(1, 2.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        store.insert(Point(2, float("nan"), 0.0, 1.0))
    with pytest.raises(ValueError):
        store.insert(Point(3, 0.0, 0.0, -1.0))
    with pytest.raises(ValueError):
        store.insert(Point(4, 0.0, 0.0, True))
    with pytest.raises(ValueError):
        store.insert(Point(5, 0.0, 0.0, 10**400))  # an int past the float range
    for x in (None, "1.0", 10**400):
        with pytest.raises(ValueError):
            store.insert(Point(6, x, 0.0, 1.0))
    after = (dict(store.points), {key: (agg.weight, agg.count) for key, agg in store.cells.items()})
    assert after == before


def test_store_rejects_bad_cell_size():
    for size in (0.0, -1.0, float("inf"), True):
        with pytest.raises(ValueError):
            PointStore(size)


def test_insert_with_unrepresentable_cell_index_leaves_store_unchanged():
    # 1e300 / 1e-300 overflows to inf, which has no integer cell index
    store = PointStore(1e-300)
    store.insert(Point(1, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        store.insert(Point(2, 1e300, 0.0, 1.0))
    assert list(store.points) == [1]
    assert [(agg.weight, agg.count) for agg in store.cells.values()] == [(1.0, 1)]


def test_points_are_immutable_so_a_caller_cannot_corrupt_the_store():
    store = PointStore(1.0)
    p = Point(1, 0.5, 0.5, 1.0)
    store.insert(p)
    store.insert(Point(2, 0.6, 0.6, 2.0))
    for field, value in (("x", 10.0), ("w", 5.0)):
        with pytest.raises(AttributeError):
            setattr(p, field, value)
    assert store.points[1] == Point(1, 0.5, 0.5, 1.0)
    key, old, new = store.delete(1)
    assert (old, new) == (3.0, 2.0)
    assert (store.cells[key].weight, store.cells[key].count) == (2.0, 1)


def test_len_counts_live_points():
    store = PointStore(1.0)
    assert len(store) == 0
    for i in range(5):
        store.insert(Point(i, 0.5 * i, 0.5, 1.0))
    store.delete(1)
    store.delete(3)
    store.update_weight(0, 2.0)
    assert len(store) == 3


def test_delete_examples():
    store = PointStore(1.0)
    store.insert(Point(1, 0.5, 0.5, 3.0))
    store.insert(Point(2, 0.9, 0.1, 2.0))
    key = cell_key(0, 0)

    assert store.delete(2) == (key, 5.0, 3.0)
    assert store.cells[key].count == 1
    assert store.delete(1) == (key, 3.0, 0.0)
    assert key not in store.cells
    with pytest.raises(UnknownIdError):
        store.delete(99)


def test_update_examples():
    store = PointStore(1.0)
    store.insert(Point(1, 0.5, 0.5, 3.0))
    key = cell_key(0, 0)

    assert store.update_weight(1, 5.0) == (key, 3.0, 5.0)
    assert store.cells[key].weight == 5.0
    assert store.update_weight(1, 5.0) == (key, 5.0, 5.0)
    assert store.cells[key].weight == 5.0
    assert store.update_weight(1, 0.0) == (key, 5.0, 0.0)
    assert store.cells[key].count == 1  # zero-weight point kept
    with pytest.raises(UnknownIdError):
        store.update_weight(99, 1.0)
    with pytest.raises(ValueError):
        store.update_weight(1, -2.0)
    with pytest.raises(ValueError):
        store.update_weight(1, True)
    with pytest.raises(ValueError):
        store.update_weight(1, 10**400)
    assert store.points[1].w == 0.0
    assert store.cells[key].weight == 0.0


def test_locate_agrees_with_cell_key():
    rng = random.Random(29)
    for _ in range(2000):
        r = rng.uniform(0.1, 5.0)
        store = PointStore(r)
        x, y = rng.uniform(-100, 100), rng.uniform(-100, 100)
        key = store.insert(Point(0, x, y, 1.0))[0]
        a, b = cell_key_to_index(key)
        assert (a, b) == (math.floor(x / r), math.floor(y / r))
        assert key == cell_key(a, b) == cell_key(*cell_index(x, y, r))


def test_nonempty_cells_sorted_and_counted():
    store = PointStore(1.0)
    assert sorted(store.cells.items()) == []
    store.insert(Point(1, 0.5, 0.5, 1.0))
    store.insert(Point(2, 0.6, 0.4, 2.0))
    store.insert(Point(3, 5.5, 0.5, 4.0))
    cells = sorted(store.cells.items())
    assert [key for key, _ in cells] == sorted(key for key, _ in cells)
    assert len(cells) == 2
    assert sum(agg.count for _, agg in cells) == 3


def test_all_points_one_cell():
    store = PointStore(10.0)
    for i in range(25):
        store.insert(Point(i, float(i % 5), float(i // 5), 1.0))
    cells = sorted(store.cells.items())
    assert len(cells) == 1
    assert cells[0][1].count == 25


def test_rebuild_equivalence_after_random_events():
    rng = random.Random(23)
    for _ in range(20):
        points, events = random_trace(rng, rng.randint(5, 40), 400, extent=8.0)
        store = PointStore(1.0)
        for p in points:
            store.insert(p)
        for e in events:
            if e.kind == "insert":
                store.insert(Point(e.id, e.x, e.y, e.w))
            elif e.kind == "delete":
                store.delete(e.id)
            else:
                store.update_weight(e.id, e.w)
        members = {}
        for p in store.points.values():
            members.setdefault(cell_key(*cell_index(p.x, p.y, 1.0)), []).append(p.w)
        assert store.cells.keys() == members.keys()
        for key, weights in members.items():
            assert store.cells[key].count == len(weights)
            assert abs(store.cells[key].weight - math.fsum(weights)) <= 1e-9
        assert len(store.cells) <= len(store.points)


class NaiveStore:
    """Point ids to points and cell keys to [weight, count], with the store's
    float operations written out: a new cell takes the weight itself,
    delete subtracts, update adds w_new - w_old."""

    def __init__(self, r):
        self.r = r
        self.points = {}
        self.cells = {}

    @staticmethod
    def _weight(w):
        if isinstance(w, bool) or not isinstance(w, (int, float)) or not (w >= 0 and w <= sys.float_info.max):
            raise ValueError("weight")
        return float(w)

    def _key(self, x, y):
        try:
            return cell_key(*cell_index(x, y, self.r))
        except ValueError:
            raise ValueError("cell") from None

    def _add(self, cell, dw):
        new = cell[0] + dw
        if new == math.inf:
            raise ValueError("overflow")
        return new

    def insert(self, p):
        if p.id in self.points:
            raise DuplicateIdError(p.id)
        w = self._weight(p.w)
        key = self._key(p.x, p.y)
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = [w, 1]
            old, new = 0.0, w
        else:
            old, new = cell[0], self._add(cell, w)
            cell[:] = [new, cell[1] + 1]
        self.points[p.id] = p
        return key, old, new

    def delete(self, pid):
        if pid not in self.points:
            raise UnknownIdError(pid)
        p = self.points.pop(pid)
        key = self._key(p.x, p.y)
        cell = self.cells[key]
        old = cell[0]
        if cell[1] == 1:
            del self.cells[key]
            return key, old, 0.0
        cell[:] = [old - p.w, cell[1] - 1]
        return key, old, cell[0]

    def update_weight(self, pid, w_new):
        if pid not in self.points:
            raise UnknownIdError(pid)
        w = self._weight(w_new)
        p = self.points[pid]
        key = self._key(p.x, p.y)
        cell = self.cells[key]
        old, new = cell[0], self._add(cell, w - p.w)
        cell[0] = new
        self.points[pid] = Point(p.id, p.x, p.y, w)
        return key, old, new


_EXTREME_WEIGHTS = (0.0, -0.0, 1.0, 1e16, 5e-324, 1e308)
_INT_WEIGHTS = (3, 2**53 + 1)
_BAD_WEIGHTS = (-1.0, -5e-324, math.nan, math.inf, True, "1", None, 10**400)
# with cell size 0.5: x / r is nan or inf, or x is not a number
_NO_CELL = ((math.nan, 0.1), (0.1, -math.inf), (1e308, 0.1), (0.1, 10**400), (None, 0.1), ("0", 0.1))


def _draw_weight(rng):
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(_EXTREME_WEIGHTS)
    if roll < 0.9:
        return rng.uniform(0.0, 10.0)
    if roll < 0.95:
        return rng.choice(_INT_WEIGHTS)
    return rng.choice(_BAD_WEIGHTS)


@pytest.mark.parametrize("seed", range(4))
def test_store_matches_a_naive_model_op_by_op(seed):
    # four cells (-1 and 0 on each axis at cell size 0.5); every triple and
    # the final cells agree by repr, so 0.0 and -0.0 differ, and a rejected
    # mutation leaves the store as it was
    rng = random.Random(seed)
    store, model = PointStore(0.5), NaiveStore(0.5)
    next_id = 0
    rejected = set()
    for _ in range(3000):
        live = list(model.points)
        roll = rng.random()
        if roll < 0.4 or not live:
            if live and rng.random() < 0.03:
                pid = rng.choice(live)
            else:
                pid, next_id = next_id, next_id + 1
            if rng.random() < 0.03:
                x, y = rng.choice(_NO_CELL)
            else:
                x, y = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            kind, args = "insert", (Point(pid, x, y, _draw_weight(rng)),)
        elif roll < 0.7:
            kind, args = "delete", (rng.choice(live) if rng.random() < 0.97 else -1,)
        else:
            kind, args = "update_weight", (rng.choice(live) if rng.random() < 0.97 else -1, _draw_weight(rng))
        before = repr(store.points), repr(store.cells)
        try:
            expected = getattr(model, kind)(*args)
        except (KeyError, ValueError) as exc:
            rejected.add((kind, type(exc).__name__, str(exc) if type(exc) is ValueError else ""))
            with pytest.raises(type(exc)):
                getattr(store, kind)(*args)
            assert (repr(store.points), repr(store.cells)) == before
            continue
        assert repr(getattr(store, kind)(*args)) == repr(expected)
    assert repr(store.points) == repr(model.points)
    assert store.cells.keys() == model.cells.keys()
    for key, agg in store.cells.items():
        assert repr((agg.weight, agg.count)) == repr(tuple(model.cells[key]))
    assert rejected == {
        ("insert", "DuplicateIdError", ""),
        ("insert", "ValueError", "weight"),
        ("insert", "ValueError", "cell"),
        ("insert", "ValueError", "overflow"),
        ("delete", "UnknownIdError", ""),
        ("update_weight", "UnknownIdError", ""),
        ("update_weight", "ValueError", "weight"),
        ("update_weight", "ValueError", "overflow"),
    }


def _load_one_by_one(r, points):
    """The reference load: a store filled by insert, or the exception it raised."""
    store = PointStore(r)
    try:
        for p in points:
            store.insert(p)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return exc
    return store


def _load_in_bulk(r, points):
    try:
        return PointStore(r, points)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        return exc


def _assert_same_load(bulk, seq):
    """Same points (the caller's objects, in order), same cells in the same
    order, same counts and weights by repr, so 0.0 and -0.0 differ; or the
    same exception type and message."""
    if isinstance(seq, Exception):
        assert (type(bulk), str(bulk)) == (type(seq), str(seq))
        return
    assert list(bulk.points) == list(seq.points)
    assert all(a is b for a, b in zip(bulk.points.values(), seq.points.values()))
    assert list(bulk.cells) == list(seq.cells)
    assert {type(key) for key in bulk.cells} <= {int}
    assert [repr((agg.weight, agg.count)) for agg in bulk.cells.values()] == \
        [repr((agg.weight, agg.count)) for agg in seq.cells.values()]


def _random_load_case(rng):
    """(cell size, points): up to 60 points on a few cells around the origin,
    weights from the extreme set or uniform, ids in shuffled order."""
    r = rng.choice((0.5, 1.0, rng.uniform(0.1, 3.0)))
    span = rng.choice((1.0, 3.0, 20.0)) * r
    ids = list(range(rng.randint(0, 60)))
    rng.shuffle(ids)
    points = [
        Point(pid, rng.uniform(-span, span), rng.uniform(-span, span),
              rng.choice(_EXTREME_WEIGHTS[:4]) if rng.random() < 0.4 else rng.uniform(0.0, 10.0))
        for pid in ids
    ]
    return r, points


_BAD_LOAD_POINTS = (
    Point(0, 0.1, 0.1, 1.0),  # a duplicate id: every case holds id 0
    *(Point(-1, 0.1, 0.1, w) for w in (True, 3, 10**400, math.nan, math.inf, -1.0, -5e-324)),
    *(Point(-1, x, y, 1.0) for x, y in ((None, 0.1), ("0", 0.1), (math.nan, 0.1), (0.1, -math.inf))),
    Point([1], 0.1, 0.1, 1.0),  # an unhashable id
)


@pytest.mark.parametrize("seed", range(4))
def test_bulk_load_equals_inserting_one_by_one(seed):
    rng = random.Random(seed)
    for _ in range(200):
        r, points = _random_load_case(rng)
        store = PointStore(r)
        assert store._bulk_load(points) is bool(points)  # the pass vouches for every plain case
        _assert_same_load(store, _load_one_by_one(r, points))
        _assert_same_load(_load_in_bulk(r, iter(points)), _load_one_by_one(r, points))
        if points:  # one bad point at a random place: the same error as one by one
            bad = list(points)
            bad.insert(rng.randrange(len(points) + 1), rng.choice(_BAD_LOAD_POINTS))
            assert PointStore(r)._bulk_load(bad) is False
            _assert_same_load(_load_in_bulk(r, bad), _load_one_by_one(r, bad))


def test_bulk_load_inputs_the_pass_hands_to_insert():
    good = [Point(0, 0.5, 0.5, 2.0), Point(1, -0.5, 0.5, 1.0)]
    cases = [
        [],
        *(good + [p] for p in _BAD_LOAD_POINTS),
        good + [Point(2, 0.5, 0.5, 3)],  # an int weight is taken, as float(3)
        good + [Point(2, 3, 0.5, 1.0)],  # an int coordinate is taken too
        # floor(x / r) past the int64 key range of the pass, near and far
        good + [Point(2, 2.0**29, 0.5, 1.0)],
        good + [Point(2, 0.5, -(2.0**29) - 1, 1.0)],
        good + [Point(2, 2.0**31, -(2.0**31), 1.0)],  # a Cantor key past int64
        good + [Point(2, 1e300, -1e300, 1.0)],
        # two 1e308 points overflow their cell; no numpy RuntimeWarning either
        [Point(0, 0.5, 0.5, 1e308), Point(1, 0.6, 0.6, 1e308)],
    ]
    for points in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bulk = _load_in_bulk(1.0, points)
            _assert_same_load(bulk, _load_one_by_one(1.0, points))
            _assert_same_load(_load_in_bulk(1.0, (p for p in points)), _load_one_by_one(1.0, points))
            if points:
                assert PointStore(1.0)._bulk_load(points) is False
    assert str(_load_in_bulk(1.0, cases[-1])) == "cell weight 1e+308 + 1e+308 overflows the float range"


def test_bulk_load_keeps_sums_in_insert_order_and_the_sign_of_zero():
    # 1e16 + 1.0 rounds back to 1e16, so the order of a cell's sum shows;
    # the edge indices of the pass's key range key as grid.cell_key does
    points = [Point(0, 0.5, 0.5, 1.0), Point(1, 0.6, 0.6, 1.0), Point(2, 0.7, 0.7, 1e16),
              Point(3, 5.5, 5.5, -0.0), Point(4, 5.6, 5.6, -0.0), Point(5, 7.5, 7.5, -0.0),
              Point(6, 7.6, 7.6, 0.0), Point(7, -(2.0**29), 2.0**29 - 1, 1.0), Point(8, 0.8, 0.8, 1.0)]
    in_order = 1.0 + 1.0 + 1e16 + 1.0
    assert in_order != 1e16 + 1.0 + 1.0 + 1.0
    store = PointStore(1.0)
    assert store._bulk_load(points)
    assert {key: repr((agg.weight, agg.count)) for key, agg in store.cells.items()} == {
        cell_key(0, 0): repr((in_order, 4)),
        cell_key(5, 5): "(-0.0, 2)",
        cell_key(7, 7): "(0.0, 2)",
        cell_key(-(2**29), 2**29 - 1): "(1.0, 1)",
    }
    _assert_same_load(store, _load_one_by_one(1.0, points))
