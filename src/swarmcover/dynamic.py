"""Drone coverage maintained online: at most one relocation per event.

Every nonempty grid cell sits in exactly one of two pools: covered (a
drone is assigned to it) or uncovered. After each point insert, delete or
weight update the structure restores the property that the covered pool
holds the heaviest min(m, #cells) cells, moving at most one drone:

* an uncovered cell that now outweighs the lightest covered cell steals
  its drone (or grabs a parked one when a brand-new cell appears while
  drones are idle);
* a covered cell whose weight drops below the heaviest uncovered cell
  hands its drone over;
* a covered cell whose last point is deleted releases its drone to the
  heaviest uncovered cell, or parks it.

Moves compare weights strictly, so ties never oscillate. Pool extrema are
served by lazily-pruned heaps keyed by (weight, cell key): stale entries
are detected against the live cell table and dropped on sight, and a heap
is rebuilt whenever stale entries dominate, keeping every event at
O(log n) amortized. A state is single-writer; apply events sequentially.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .grid import GridConfig, Point
from .placement import DroneSite, Placement, cell_geometry, rank_cells
from .store import PointStore

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"

# rebuild a heap once stale entries outnumber live ones this many times over
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 64


@dataclass(frozen=True)
class Event:
    """One replayable mutation of the point set."""

    kind: str
    id: object
    x: float | None = None
    y: float | None = None
    w: float | None = None

    @classmethod
    def insert(cls, pid: object, x: float, y: float, w: float) -> "Event":
        return cls(INSERT, pid, x, y, w)

    @classmethod
    def delete(cls, pid: object) -> "Event":
        return cls(DELETE, pid)

    @classmethod
    def update(cls, pid: object, w: float) -> "Event":
        return cls(UPDATE, pid, w=w)


class SwapReport(NamedTuple):
    """What one event did to the drone assignment (at most one move)."""

    moved: bool
    vacated: int | None  # cell key a drone left, if any
    occupied: int | None  # cell key a drone landed on, if any
    drone: int | None
    covered_weight_after: float


class CoverageState:
    """Live store plus drone assignment; create via :func:`build`."""

    def __init__(self, store: PointStore, config: GridConfig):
        if store.cell_size != config.cell_size:
            raise ValueError(
                f"store cell size {store.cell_size!r} does not match config cell size {config.cell_size!r}"
            )
        self.store = store
        self.config = config
        ranked = rank_cells(store)
        k = min(config.m, len(ranked))
        self.assignment: dict[int, int] = {key: i for i, (key, _) in enumerate(ranked[:k])}
        # weights of the covered cells, kept bit-identical to the store
        # aggregates at every mutation site; small and cache-hot
        self._covered_weights: dict[int, float] = dict(ranked[:k])
        self._parked: list[int] = list(range(k, config.m))  # ascending == valid heap
        self._heap_min: list[tuple[float, int]] = [(w, key) for key, w in ranked[:k]]
        heapq.heapify(self._heap_min)
        self._heap_max: list[tuple[float, int]] = [(-w, -key) for key, w in ranked[k:]]
        heapq.heapify(self._heap_max)

    # -- pool extrema ---------------------------------------------------

    def min_covered(self) -> tuple[int, float] | None:
        """Lightest covered cell as (key, weight); ties break to the smaller
        key. Stale heap entries on top are pruned on the way."""
        heap = self._heap_min
        covered = self._covered_weights
        while heap:
            w, key = heap[0]
            if covered.get(key) == w:
                return key, w
            heapq.heappop(heap)
        return None

    def max_uncovered(self) -> tuple[int, float] | None:
        """Heaviest uncovered cell as (key, weight); ties break to the larger
        key. Stale heap entries on top are pruned on the way."""
        heap = self._heap_max
        cells = self.store.cells
        assignment = self.assignment
        while heap:
            nw, nk = heap[0]
            key = -nk
            agg = cells.get(key)
            if agg is not None and agg.weight == -nw and key not in assignment:
                return key, -nw
            heapq.heappop(heap)
        return None

    # -- queries ---------------------------------------------------------

    def covered_weight(self) -> float:
        """Total weight of the covered cells (order-independent exact sum)."""
        return math.fsum(self._covered_weights.values())

    def placements(self) -> Placement:
        """Current drone geometry, one entry per drone, parked ones bare."""
        by_drone = {d: key for key, d in self.assignment.items()}
        cells = self.store.cells
        drones = []
        for i in range(self.config.m):
            key = by_drone.get(i)
            if key is None:
                drones.append(DroneSite(i, None, None))
            else:
                drones.append(DroneSite(i, key, cell_geometry(cells[key].index, self.config)))
        return Placement(tuple(drones), self.covered_weight(), self.config)

    # -- mutation ---------------------------------------------------------

    def apply(self, event: Event) -> SwapReport:
        """Apply one event; the store is untouched if the event is invalid."""
        store = self.store
        kind = event.kind
        if kind == INSERT:
            if event.x is None or event.y is None or event.w is None:
                raise ValueError("insert event needs coordinates and a weight")
            key, new_w = store.insert(Point(event.id, event.x, event.y, event.w))
            evicted = False
        elif kind == DELETE:
            key, new_w = store.delete(event.id)
            evicted = key not in store.cells
        elif kind == UPDATE:
            if event.w is None:
                raise ValueError("update event needs a weight")
            key, _ = store.update_weight(event.id, event.w)
            new_w = store.cells[key].weight
            evicted = False
        else:
            raise ValueError(f"unknown event kind {kind!r}")

        # a move takes a free drone and lands it on the heaviest uncovered
        # cell (or parks it when there is none); the drone is freed by an
        # evicted covered cell, taken from the parked ones, or taken from
        # the lightest covered cell under the strict move rule
        assignment = self.assignment
        vacated = drone = w_low = None
        if key in assignment:
            if evicted:
                vacated, drone = key, assignment.pop(key)
                del self._covered_weights[key]
            else:
                self._covered_weights[key] = new_w
                heapq.heappush(self._heap_min, (new_w, key))
        elif not evicted:
            heapq.heappush(self._heap_max, (-new_w, -key))

        top = self.max_uncovered()
        if drone is None:
            if self._parked:
                if top is not None:
                    drone = heapq.heappop(self._parked)
            else:
                low = self.min_covered()
                if low is not None and top is not None and top[1] > low[1]:  # strict move rule
                    heapq.heappop(self._heap_min)
                    vacated, w_low = low
                    drone = assignment.pop(vacated)
                    del self._covered_weights[vacated]
        occupied = None
        if drone is not None:
            if top is None:
                heapq.heappush(self._parked, drone)
            else:
                occupied = self._cover(drone)
            if w_low is not None:
                # pushed after _cover's pop: the heap layout decides which of
                # two equal entries (weights 0.0 and -0.0) surfaces first
                heapq.heappush(self._heap_max, (-w_low, -vacated))

        self._maybe_compact()
        return SwapReport(drone is not None, vacated, occupied, drone, self.covered_weight())

    def _cover(self, drone: int) -> int:
        """Land ``drone`` on the heaviest uncovered cell, whose heap entry
        max_uncovered() has just found valid; returns the cell key."""
        nw, nk = heapq.heappop(self._heap_max)
        key = -nk
        self.assignment[key] = drone
        self._covered_weights[key] = -nw
        heapq.heappush(self._heap_min, (-nw, key))
        return key

    def _maybe_compact(self) -> None:
        covered = len(self.assignment)
        if len(self._heap_min) > _COMPACT_FACTOR * covered + _COMPACT_SLACK:
            self._heap_min = [(w, key) for key, w in self._covered_weights.items()]
            heapq.heapify(self._heap_min)
        uncovered = len(self.store.cells) - covered
        if len(self._heap_max) > _COMPACT_FACTOR * uncovered + _COMPACT_SLACK:
            assignment = self.assignment
            self._heap_max = [
                (-agg.weight, -key)
                for key, agg in self.store.cells.items()
                if key not in assignment
            ]
            heapq.heapify(self._heap_max)


def build(points: Iterable[Point], config: GridConfig) -> CoverageState:
    """Load points into a fresh store and assign the drones statically."""
    store = PointStore(config.cell_size)
    for p in points:
        store.insert(p)
    return CoverageState(store, config)
