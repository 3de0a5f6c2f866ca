import math
import random

import pytest

from swarmcover import (
    GridConfig,
    cantor_pair,
    cantor_unpair,
    cell_center,
    cell_index,
    cell_key,
    cell_key_to_index,
    fold_signed,
    unfold_signed,
)


def test_cell_index_examples():
    assert cell_index(2.3, 0.7, 1.0) == (2, 0)
    assert cell_index(-0.1, -2.0, 1.0) == (-1, -2)
    assert cell_index(3.0, 5.0, 1.0) == (3, 5)


def test_cell_index_rejects_bad_input():
    with pytest.raises(ValueError):
        cell_index(float("nan"), 0.0, 1.0)
    with pytest.raises(ValueError):
        cell_index(0.0, float("inf"), 1.0)
    with pytest.raises(ValueError):
        cell_index(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        cell_index(0.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        cell_index(0.0, 0.0, True)
    with pytest.raises(ValueError):
        cell_index(1e300, 0.0, 1e-300)  # x / r overflows to inf
    for bad in (None, "1", 10**400):  # no float quotient, or one past the float range
        with pytest.raises(ValueError):
            cell_index(bad, 0.0, 1.0)


def test_fold_signed_examples():
    assert fold_signed(0) == 0
    assert fold_signed(-1) == 1
    assert fold_signed(3) == 6


def test_fold_signed_round_trip():
    for z in range(-5000, 5001):
        n = fold_signed(z)
        assert n >= 0
        assert unfold_signed(n) == z


def test_inverses_reject_negatives():
    with pytest.raises(ValueError):
        unfold_signed(-1)
    with pytest.raises(ValueError):
        cantor_unpair(-1)


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 2) == 8
    assert cantor_pair(2, 1) == 7  # asymmetry


def test_cantor_pair_rejects_negatives():
    with pytest.raises(ValueError):
        cantor_pair(-1, 0)
    with pytest.raises(ValueError):
        cantor_pair(0, -3)


def test_cantor_pair_round_trip_large():
    rng = random.Random(11)
    for _ in range(2000):
        a, b = rng.randrange(0, 10**9), rng.randrange(0, 10**9)
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)


def test_cell_key_examples():
    assert cell_key(0, 0) == 0
    assert cell_key(1, 2) == cantor_pair(2, 4) == 25
    assert cell_key(-1, 0) == cantor_pair(1, 0) == 1


def test_cell_key_round_trip():
    rng = random.Random(13)
    for _ in range(2000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        assert cell_key_to_index(cell_key(a, b)) == (a, b)
        assert cell_key(a, b) == cantor_pair(fold_signed(a), fold_signed(b))


def test_cell_key_injective_small_window():
    seen = set()
    for a in range(-60, 61):
        for b in range(-60, 61):
            seen.add(cell_key(a, b))
    assert len(seen) == 121 * 121


def test_cell_center_examples():
    assert cell_center((0, 0), 2.0) == (1.0, 1.0)
    assert cell_center((-1, -1), 2.0) == (-1.0, -1.0)
    assert cell_center((3, 5), 1.0) == (3.5, 5.5)
    for r in (0.0, float("nan"), True):
        with pytest.raises(ValueError):
            cell_center((0, 0), r)


def test_cell_center_maps_back_to_own_cell():
    rng = random.Random(17)
    for _ in range(500):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        r = rng.uniform(0.1, 5.0)
        assert cell_index(*cell_center((a, b), r), r) == (a, b)


def test_interior_points_map_to_their_cell():
    rng = random.Random(19)
    for _ in range(500):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        r = rng.uniform(0.1, 3.0)
        x = (a + rng.uniform(0.05, 0.95)) * r
        y = (b + rng.uniform(0.05, 0.95)) * r
        assert cell_index(x, y, r) == (a, b)


def test_grid_config_cell_sizes():
    assert GridConfig(0.5, "square", 1).cell_size == 1.0
    assert GridConfig(1.0, "disk", 1).cell_size == pytest.approx(math.sqrt(2.0))


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(0.0, "square", 1)
    with pytest.raises(ValueError):
        GridConfig(True, "square", 1)
    with pytest.raises(ValueError):
        GridConfig(1.0, "triangle", 1)
    with pytest.raises(ValueError):
        GridConfig(1.0, "square", 0)
