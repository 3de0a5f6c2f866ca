"""Seeded benchmark inputs: points, event traces and points text.

These generators belong to the benchmark, not to ``swarmcover.bench``, so
an edit under ``src/`` cannot change a workload. The same seed always
gives the same inputs. Every call hands out fresh ``Point`` objects:
``build()`` keeps the caller's points and ``update_weight`` mutates them,
so two consumers must never share one.
"""

import numpy as np

from swarmcover import Event, Point

MAX_WEIGHT = 10.0
# events drawn per batch; a constant, so the seed alone fixes the sequence
# however many events a timed run ends up consuming
_BATCH = 4096


class PointSet:
    """n uniform points on [0, extent)^2 with uniform weights in [0, MAX_WEIGHT)."""

    def __init__(self, n: int, extent: float, seed: int):
        rng = np.random.default_rng([seed, 0])
        self.extent = extent
        self.xs = rng.uniform(0.0, extent, n).tolist()
        self.ys = rng.uniform(0.0, extent, n).tolist()
        self.ws = rng.uniform(0.0, MAX_WEIGHT, n).tolist()

    def __len__(self) -> int:
        return len(self.xs)

    def points(self, count: int | None = None) -> list[Point]:
        """Fresh Point objects for the first ``count`` points (all by default); ids are 0..n-1."""
        count = len(self) if count is None else count
        return [Point(i, self.xs[i], self.ys[i], self.ws[i]) for i in range(count)]

    def text(self) -> str:
        """The points in the plain-text "id x y w" format, floats in repr form."""
        return "".join(
            f"{i} {x!r} {y!r} {w!r}\n" for i, (x, y, w) in enumerate(zip(self.xs, self.ys, self.ws))
        )


class TraceGen:
    """Endless 30/30/40 insert/delete/update stream, valid against a store
    that holds ids 0..n-1 of a PointSet; the live population stays near n."""

    def __init__(self, points: PointSet, seed: int):
        self._rng = np.random.default_rng([seed, 1])
        self._extent = points.extent
        self._live = list(range(len(points)))
        self._next_id = len(points)
        self._buffer: list[Event] = []
        self._alive: list[int] = []  # live ids after each buffered event
        self._pos = 0
        self.live = len(points)  # live ids after the events handed out so far

    def take(self, count: int) -> list[Event]:
        """The next ``count`` events of the stream."""
        out: list[Event] = []
        while len(out) < count:
            if self._pos == len(self._buffer):
                self._buffer = self._draw()
                self._pos = 0
            stop = min(len(self._buffer), self._pos + count - len(out))
            out.extend(self._buffer[self._pos:stop])
            self.live = self._alive[stop - 1]
            self._pos = stop
        return out

    def _draw(self) -> list[Event]:
        rng = self._rng
        rolls = rng.random(_BATCH).tolist()
        picks = rng.random(_BATCH).tolist()
        xs = rng.uniform(0.0, self._extent, _BATCH).tolist()
        ys = rng.uniform(0.0, self._extent, _BATCH).tolist()
        ws = rng.uniform(0.0, MAX_WEIGHT, _BATCH).tolist()
        live = self._live
        events = []
        self._alive = alive = []
        for roll, pick, x, y, w in zip(rolls, picks, xs, ys, ws):
            if roll < 0.3 or not live:
                events.append(Event.insert(self._next_id, x, y, w))
                live.append(self._next_id)
                self._next_id += 1
            elif roll < 0.6:
                i = int(pick * len(live))
                live[i], live[-1] = live[-1], live[i]
                events.append(Event.delete(live.pop()))
            else:
                events.append(Event.update(live[int(pick * len(live))], w))
            alive.append(len(live))
        return events
