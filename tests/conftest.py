"""Shared instance builders for the test suite.

Everything is driven by explicit seeds (random.Random instances, or a
seed for numpy's generator) so failures reproduce exactly.
"""

import random

import numpy as np

from swarmcover import Event, Point


def straddle_points(weight=1.0):
    """Four points hugging the grid corner at (1, 1) for cell size 1."""
    offsets = [(-0.01, -0.01), (-0.01, 0.01), (0.01, -0.01), (0.01, 0.01)]
    return [Point(i, 1 + dx, 1 + dy, weight) for i, (dx, dy) in enumerate(offsets)]


def random_square_case(rng: random.Random):
    """(points, r_cov, m) within the square-oracle guard."""
    n = rng.randint(1, 12)
    m = rng.randint(1, 3)
    r_cov = rng.uniform(0.3, 2.0)
    points = [
        Point(i, rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        for i in range(n)
    ]
    return points, r_cov, m


def random_disk_case(rng: random.Random):
    """(points, r_cov, m) within the disk-oracle guard."""
    n = rng.randint(1, 10)
    m = rng.randint(1, 2)
    r_cov = rng.uniform(0.3, 2.0)
    points = [
        Point(i, rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0), rng.uniform(0.0, 10.0))
        for i in range(n)
    ]
    return points, r_cov, m


def random_interval_case(rng: random.Random):
    """IntervalInstance arguments within the piercing-oracle guard."""
    n = rng.randint(1, 12)
    m = rng.randint(1, 3)
    length = rng.uniform(0.5, 4.0)
    items = [(rng.uniform(0.0, 12.0), rng.uniform(0.0, 10.0)) for _ in range(n)]
    return items, length, m


def random_trace(rng: random.Random, n_start, count, extent, max_points=None):
    """(initial points, events) with all event preconditions satisfied.

    When max_points is set the live population never exceeds it, keeping
    every step inside the oracle guards.
    """
    points = [
        Point(i, rng.uniform(0.0, extent), rng.uniform(0.0, extent), rng.uniform(0.0, 10.0))
        for i in range(n_start)
    ]
    live = list(range(n_start))
    next_id = n_start
    events = []
    for _ in range(count):
        roll = rng.random()
        can_insert = max_points is None or len(live) < max_points
        if (roll < 0.3 and can_insert) or not live:
            events.append(Event.insert(
                next_id, rng.uniform(0.0, extent), rng.uniform(0.0, extent), rng.uniform(0.0, 10.0)
            ))
            live.append(next_id)
            next_id += 1
        elif roll < 0.6 and len(live) > 1:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            events.append(Event.delete(live.pop()))
        else:
            events.append(Event.update(live[rng.randrange(len(live))], rng.uniform(0.0, 10.0)))
    return points, events


def random_points(n, seed, extent):
    """n uniform points on [0, extent)^2 with ids 0..n-1 and weights uniform in [0, 10)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, extent, n)
    ys = rng.uniform(0.0, extent, n)
    ws = rng.uniform(0.0, 10.0, n)
    return [Point(i, float(xs[i]), float(ys[i]), float(ws[i])) for i in range(n)]


def random_events(n_points, count, seed, extent):
    """A mixed insert/delete/update stream valid against a store holding
    ids 0..n_points-1; the live population stays roughly stable."""
    rng = random.Random(seed)
    live = list(range(n_points))
    next_id = n_points
    events = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3 or not live:
            events.append(Event.insert(
                next_id, rng.uniform(0.0, extent), rng.uniform(0.0, extent), rng.uniform(0.0, 10.0)
            ))
            live.append(next_id)
            next_id += 1
        elif roll < 0.6:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            events.append(Event.delete(live.pop()))
        else:
            events.append(Event.update(live[rng.randrange(len(live))], rng.uniform(0.0, 10.0)))
    return events
