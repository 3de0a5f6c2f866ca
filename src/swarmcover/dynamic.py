"""Drone coverage maintained online: at most one relocation per event.

Every nonempty grid cell sits in exactly one of two pools: covered (a
drone is assigned to it) or uncovered, and between events no uncovered
cell outweighs a covered one. An event changes one cell, so only that
cell can break this order, and only against the other pool's extremum.
A covered cell that gains weight, or an uncovered one that loses weight or
empties, moves nothing and reads neither extremum. Otherwise at most one
drone moves:

* a covered cell that drops below the heaviest uncovered cell hands its
  drone over; emptied, it releases its drone to that cell, or parks it;
* an uncovered cell that rises above the lightest covered cell takes its
  drone, or a parked one (then every cell was covered and this one is new).

Moves compare weights strictly, so ties never oscillate. Pool extrema are
served by lazily-pruned heaps keyed by (weight, cell key). Heap entries
only order cells: one that disagrees with the store is stale and dropped
on sight, and a reported weight is read from the store, so no output
depends on heap history. A heap is rebuilt whenever stale entries
dominate, keeping every event at O(log n) amortized. Cell weights live
only in the store; the covered weight is an exact integer total in units
of 2**-1074, shifted by new - old per covered-cell change, so it costs
O(1) per event. A state is single-writer; apply events sequentially.
"""

import heapq
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .grid import _FIXED_ONE, GridConfig, Point, _fixed
from .placement import Placement, check_same_grid, rank_cells
from .store import PointStore

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"

# rebuild a heap once stale entries outnumber live ones this many times over
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 64

def _min_heap(pairs: Iterable[tuple[int, float]]) -> list[tuple[float, int]]:
    """Covered-pool heap over (key, weight) pairs: lightest, then smallest key, on top."""
    heap = [(w, key) for key, w in pairs]
    heapq.heapify(heap)
    return heap


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
        check_same_grid(store, config)
        self.store = store
        self.config = config
        ranked = rank_cells(store, config.m)
        self.assignment: dict[int, int] = {key: i for i, (key, _) in enumerate(ranked)}
        # exact covered weight in 2**-1074 steps, and its rounding once asked for
        self._covered_fixed = sum(_fixed(w) for _, w in ranked)
        self._covered: float | None = None
        self._parked: list[int] = list(range(len(ranked), config.m))  # ascending == valid heap
        self._heap_min = _min_heap(ranked)
        self._heap_max = self._uncovered_heap()

    # -- pool extrema ---------------------------------------------------

    def min_covered(self) -> tuple[int, float] | None:
        """Lightest covered cell as (key, weight); ties break to the smaller
        key. Stale heap entries on top are pruned on the way."""
        heap = self._heap_min
        cells = self.store.cells
        assignment = self.assignment
        while heap:
            w, key = heap[0]
            if key in assignment and (weight := cells[key].weight) == w:
                return key, weight
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
                return key, agg.weight
            heapq.heappop(heap)
        return None

    # -- queries ---------------------------------------------------------

    def covered_weight(self) -> float:
        """Total weight of the covered cells, correctly rounded from the exact
        sum; OverflowError while that sum is past the float range."""
        if self._covered is None:
            self._covered = self._covered_fixed / _FIXED_ONE
        return self._covered

    def placements(self) -> Placement:
        """Current placement: each drone's cell key, None for a parked drone."""
        by_drone = {drone: key for key, drone in self.assignment.items()}
        cells = tuple(by_drone.get(i) for i in range(self.config.m))
        return Placement(cells, self.covered_weight(), self.config)

    # -- mutation ---------------------------------------------------------

    def apply(self, event: Event) -> SwapReport:
        """Apply one event; the store is untouched if the event is invalid.
        An event that takes the covered total past the float range is
        applied, then raises covered_weight()'s OverflowError."""
        store = self.store
        kind = event.kind
        if kind == INSERT:
            key, old_w, new_w = store.insert(Point(event.id, event.x, event.y, event.w))
        elif kind == DELETE:
            key, old_w, new_w = store.delete(event.id)
        elif kind == UPDATE:
            key, old_w, new_w = store.update_weight(event.id, event.w)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        evicted = key not in store.cells

        # only the event's cell can break the pool order (module docstring)
        assignment = self.assignment
        vacated = drone = None
        if key in assignment:
            if evicted or (new_w < old_w and (top := self.max_uncovered()) is not None and top[1] > new_w):
                vacated, drone = key, assignment.pop(key)
                self._shift_covered(-_fixed(old_w))
                if not evicted:
                    heapq.heappush(self._heap_max, (-new_w, -key))
            else:
                self._shift_covered(_fixed(new_w) - _fixed(old_w))
                heapq.heappush(self._heap_min, (new_w, key))
        elif not evicted:
            heapq.heappush(self._heap_max, (-new_w, -key))
            # >=, not >: a new cell reports old_w 0.0, and at weight 0.0 it still
            # takes a parked drone, or the drone of a cell drifted below zero
            if new_w >= old_w:
                if self._parked:  # every cell was covered, so this one is new
                    drone = heapq.heappop(self._parked)
                elif (low := self.min_covered()) is not None and new_w > low[1]:  # strict move rule
                    heapq.heappop(self._heap_min)
                    vacated, w_out = low
                    drone = assignment.pop(vacated)
                    self._shift_covered(-_fixed(w_out))
                    heapq.heappush(self._heap_max, (-w_out, -vacated))
        occupied = None if drone is None else self._cover(drone)

        self._maybe_compact()
        return SwapReport(drone is not None, vacated, occupied, drone, self.covered_weight())

    def _cover(self, drone: int) -> int | None:
        """Land ``drone`` on the heaviest uncovered cell and return its key,
        or park the drone when no cell is uncovered."""
        if (top := self.max_uncovered()) is None:
            heapq.heappush(self._parked, drone)
            return None
        heapq.heappop(self._heap_max)
        key, w = top
        self.assignment[key] = drone
        self._shift_covered(_fixed(w))
        heapq.heappush(self._heap_min, (w, key))
        return key

    def _shift_covered(self, delta: int) -> None:
        # rounded on the next read: an unroundable total raises, never goes stale
        self._covered_fixed += delta
        self._covered = None

    def _maybe_compact(self) -> None:
        cells = self.store.cells
        assignment = self.assignment
        if len(self._heap_min) > _COMPACT_FACTOR * len(assignment) + _COMPACT_SLACK:
            self._heap_min = _min_heap((key, cells[key].weight) for key in assignment)
        if len(self._heap_max) > _COMPACT_FACTOR * (len(cells) - len(assignment)) + _COMPACT_SLACK:
            self._heap_max = self._uncovered_heap()

    def _uncovered_heap(self) -> list[tuple[float, int]]:
        """Uncovered-pool heap, the cells outside the assignment: heaviest, then largest key, on top."""
        assignment = self.assignment
        heap = [(-agg.weight, -key) for key, agg in self.store.cells.items() if key not in assignment]
        heapq.heapify(heap)
        return heap


def build(points: Iterable[Point], config: GridConfig) -> CoverageState:
    """Load points into a fresh store and assign the drones statically.

    The store is bulk-loaded (``PointStore(cell_size, points)``): its state,
    and any error, is that of inserting the points one by one."""
    return CoverageState(PointStore(config.cell_size, points), config)
