"""Golden replay: the drone moves of CoverageState, pinned bit for bit.

GOLDEN_DIGEST was recorded by running this file's ``replay_digest()`` on
the commit before the move path was folded into one helper (the commit
that still had ``_relocate_from`` and separate parked and swap branches
in ``dynamic.py``). Any change to which drone moves where, to tie
breaking, to parking order, to a covered weight's last bit or to the sign
of a zero weight reported by min_covered()/max_uncovered() changes the
digest.
"""

import hashlib
import random

from swarmcover import Event, GridConfig, Point, build

GOLDEN_DIGEST = "d02344486d4ae24e1a5af9fa4ee2f00f4725c8b8e02b67b9b7306cb85cd2e831"

# m = 40 exceeds the cell count of the 4 x 4 extent for both shapes
# (at most 16 square cells and 36 disk cells of size sqrt(2) * 0.5)
SHAPES = ("square", "disk")
DRONES = (1, 3, 40)
SEEDS = (0, 1, 2)
EXTENT = 4.0
EVENTS = 400


def _weight(rng):
    # exact ties and zero weights of both signs come up often; the rest are
    # arbitrary floats
    return rng.choice((0.0, -0.0, 1.0, 2.0, 3.0, rng.uniform(0.0, 10.0)))


def _trace(rng):
    """(initial points, events) over a small population, so deletes often
    empty a cell, covered ones included."""
    points = [
        Point(i, rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT), _weight(rng)) for i in range(12)
    ]
    live = list(range(12))
    next_id = 12
    events = []
    for _ in range(EVENTS):
        roll = rng.random()
        if (roll < 0.35 and len(live) < 30) or not live:
            events.append(Event.insert(next_id, rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT), _weight(rng)))
            live.append(next_id)
            next_id += 1
        elif roll < 0.7:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            events.append(Event.delete(live.pop()))
        else:
            events.append(Event.update(live[rng.randrange(len(live))], _weight(rng)))
    return points, events


def replay_digest() -> str:
    """sha256 over every SwapReport and the pool extrema after it, the
    initial and final drone assignment and the final parked drones of all
    golden traces."""
    h = hashlib.sha256()
    for shape in SHAPES:
        for m in DRONES:
            for seed in SEEDS:
                points, events = _trace(random.Random(f"{shape}-{m}-{seed}"))
                state = build(points, GridConfig(0.5, shape, m))
                h.update(repr(sorted(state.assignment.items())).encode())
                for e in events:
                    h.update(repr(tuple(state.apply(e))).encode())
                    h.update(repr((state.min_covered(), state.max_uncovered())).encode())
                h.update(repr(sorted(state.assignment.items())).encode())
                parked = sorted(set(range(m)) - set(state.assignment.values()))
                h.update(repr(parked).encode())
    return h.hexdigest()


def test_replay_matches_golden_digest():
    assert replay_digest() == GOLDEN_DIGEST
