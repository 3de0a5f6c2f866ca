"""Workloads, timing, tracing and output checks of the swarmcover benchmark.

Each run is one single-threaded process with one caller in a closed loop:
the next event goes to ``apply`` only after the previous call returned.
The library sees nothing but generated ``Point``/``Event`` objects or a
points text, and the timed code is the public functions of ``store``,
``dynamic``, ``placement``, ``intervals`` and ``formats``. The ``oracle``
module is not used, and the garbage collector keeps its default settings,
as under the command line; full collections are forced only outside the
timed regions, so one does not land in the middle of a measurement.

An untraced run reports the end-to-end metrics; a traced run reports the
per-layer split, timing each layer separately on the same inputs and
keeping its spans in memory until the run ends.
"""

import gc
import heapq
import json
import math
import os
import platform
import resource
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from swarmcover import (
    DELETE,
    DISK,
    INSERT,
    SQUARE,
    CoverageState,
    GridConfig,
    IntervalInstance,
    Point,
    PointStore,
    build,
    cell_index,
    cell_key,
    dp_table,
    neighborhood_query,
    parse_points,
    rank_cells,
    solve_mwpihp,
    static_place,
    upper_bound_2d,
)

import gen

clock = time.perf_counter_ns

R_COV = 0.5
POINTS_PER_CELL = 8
CHECK_EVERY = 6  # windows between static cross-checks of a stream; one more at its end
PLACE_SETUP_REPS = 5
PLACEMENT_REPS = 3  # traced rank_cells / static_place timings, median taken
# place workload: after each static_place + upper_bound_2d repetition, load
# fresh stores for about a third of the run, timing inserts in blocks: one
# insert is about a microsecond, too close to the clock's own cost and jitter
INSERT_PASSES = 8
INSERT_BLOCK = 16
MIN_REPS = 3
# the bound is an O(n m) pure-Python DP, out of reach at a stream workload's
# own n and m, so a traced stream run times the intervals layer on the first
# PROBE_POINTS points with m capped at PROBE_M
PROBE_POINTS = 20_000
PROBE_M = 32
# share of --seconds a traced place run spends streaming events, which is
# how it measures the dynamic layer its own pipeline bypasses
PLACE_STREAM_SHARE = 0.1
OUT_DIR = ".bench_out"
# The host's speed swings by up to 1.8x in phases lasting seconds as other
# tenants load it, far more than any regression bound. So every end-to-end
# timing is scaled to a reference speed: multiplied by YARDSTICK_REF_NS over
# the time yardstick_ns() takes just before and after it (0.70 ms is its
# time in quiet phases on a 2-vCPU Intel Xeon VM under CPython 3.11). The
# report keeps the raw times.
YARDSTICK_REF_NS = 700_000


@dataclass(frozen=True)
class Workload:
    kind: str  # "stream" or "place"
    n: int
    shape: str
    m: int
    window_events: int  # events per timing window, a tenth of a second or so
    # stream: windows per round; every round builds afresh and replays the
    # same events, so each round does the same work however fast the host is
    round_windows: int

    def scaled(self, scale: float) -> "Workload":
        return Workload(self.kind, max(16, round(self.n * scale)), self.shape, max(1, round(self.m * scale)),
                        max(64, round(self.window_events * scale)), self.round_windows)


WORKLOADS = {
    "stream-m8-square": Workload("stream", 1_000_000, SQUARE, 8, window_events=16_384, round_windows=24),
    "stream-m10k-disk": Workload("stream", 100_000, DISK, 10_000, window_events=1024, round_windows=4),
    "place-m32": Workload("place", 100_000, SQUARE, 32, window_events=1024, round_windows=1),
}


class Outcome:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)


class Spans:
    """Spans (name, start, end, parent, event) kept in memory, written at the end.

    Phase spans are stored as rows; each traced event stores its ordinal,
    kind and four clock stamps, and is expanded into a root span with
    store, apply and covered-weight children when the file is written.
    """

    EVENT_NAMES = ("event", "store.insert", "store.delete", "store.update", "dynamic.apply",
                   "dynamic.covered_weight")

    def __init__(self):
        self.origin = clock()
        self.names: list[str] = list(self.EVENT_NAMES)
        self.rows = array("q")  # name, start, end, parent, event
        self.stamps = array("q")  # ordinal, kind code, t0, t1, t2, t3
        self.stream_parent = -1

    def add(self, name: str, start: int, end: int) -> int:
        """Record a phase span (no parent, no event); returns its index."""
        if name not in self.names:
            self.names.append(name)
        self.rows.extend((self.names.index(name), start - self.origin, end - self.origin, -1, -1))
        return len(self.rows) // 5 - 1

    def write(self, path: str) -> int:
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 5)
        ev = np.frombuffer(self.stamps, dtype=np.int64).reshape(-1, 6)
        base = len(rows)
        k = len(ev)
        root = base + 4 * np.arange(k)
        t = ev[:, 2:] - self.origin
        names = np.stack([np.zeros(k, np.int64), 1 + ev[:, 1], np.full(k, 4), np.full(k, 5)], axis=1)
        starts = np.stack([t[:, 0], t[:, 0], t[:, 1], t[:, 2]], axis=1)
        ends = np.stack([t[:, 3], t[:, 1], t[:, 2], t[:, 3]], axis=1)
        parents = np.stack([np.full(k, self.stream_parent), root, root, root], axis=1)
        events = np.repeat(ev[:, :1], 4, axis=1)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.concatenate([rows[:, 0], names.ravel()]).astype(np.int16),
            start=np.concatenate([rows[:, 1], starts.ravel()]),
            end=np.concatenate([rows[:, 2], ends.ravel()]),
            parent=np.concatenate([rows[:, 3], parents.ravel()]),
            event=np.concatenate([rows[:, 4], events.ravel()]),
        )
        return base + 4 * k


def timed(spans: Spans, name: str, fn, *args):
    """(fn(*args), seconds), recording a span."""
    t0 = clock()
    out = fn(*args)
    t1 = clock()
    spans.add(name, t0, t1)
    return out, (t1 - t0) / 1e9


def load(points, cell_size: float) -> PointStore:
    """Fill a fresh store the way the command line does."""
    store = PointStore(cell_size)
    insert = store.insert
    for p in points:
        insert(p)
    return store


def extent_for(n: int, config: GridConfig) -> float:
    return config.cell_size * math.sqrt(n / POINTS_PER_CELL)


def same_points(parsed, points: gen.PointSet) -> bool:
    return (
        [p.id for p in parsed] == list(range(len(points)))
        and [p.x for p in parsed] == points.xs
        and [p.y for p in parsed] == points.ys
        and [p.w for p in parsed] == points.ws
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quantile_us(ns, q: float) -> float:
    return float(np.percentile(np.asarray(ns, dtype=np.int64), q)) / 1e3


def _yardstick_data():
    rng = np.random.default_rng(0)
    big = {int(k): float(v) for k, v in zip(rng.permutation(1 << 16) * 7919, rng.random(1 << 16))}
    keys = [int(k) for k in rng.choice(list(big), 2000)]
    # floats allocated in shuffled order, so summing them strides memory
    # the way the covered-weight sum does
    scattered = dict(sorted(big.items())[:10_000])
    return big, keys, scattered


_BIG, _KEYS, _SCATTERED = _yardstick_data()


def _yardstick_once() -> int:
    t = clock()
    table = {}
    for i in range(2000):
        table[i * 7919 % 4093] = i * 0.5
    total = 0.0
    for key in table:
        total += table[key]
    heap = []
    for value in table.values():
        heapq.heappush(heap, value)
    big = _BIG
    for key in _KEYS:
        total += big[key]
    math.fsum(_SCATTERED.values())
    return clock() - t


def yardstick_ns() -> int:
    """Time of a fixed pure-Python routine of dict, float, heap and
    large-table work, the median of five tries: a gauge of the host's
    current speed."""
    return sorted(_yardstick_once() for _ in range(5))[2]


class Timing:
    """Durations of one repeated step, each with its reference-speed scale."""

    def __init__(self):
        self.raw: list[float] = []  # seconds as measured
        self.scale: list[float] = []

    def measure(self, fn, *args):
        before = yardstick_ns()
        t = clock()
        out = fn(*args)
        elapsed = clock() - t
        after = yardstick_ns()
        self.raw.append(elapsed / 1e9)
        self.scale.append(2 * YARDSTICK_REF_NS / (before + after))
        return out

    def median(self) -> float:
        return statistics.median(r * s for r, s in zip(self.raw, self.scale))


def end_to_end(setup: Timing, latencies, windows, place: Timing) -> tuple[dict, dict]:
    """End-to-end metrics from scaled timings, and the figures behind them.

    ``windows`` holds (lo, hi, scale) for each window latencies[lo:hi].
    Each statistic is taken per window, scaled, and its median over the
    windows reported; setup and place times are medians of their scaled
    repetitions.
    """
    lat = np.asarray(latencies, dtype=np.int64)
    p50, p99, eps = [], [], []
    for lo, hi, scale in windows:
        w = lat[lo:hi]
        a, b = np.percentile(w, [50, 99]) * scale / 1e3
        p50.append(float(a))
        p99.append(float(b))
        eps.append(len(w) / (int(w.sum()) * scale / 1e9))
    metrics = {
        "setup_s": (setup.median(), len(setup.raw)),
        "apply_p50_us": (statistics.median(p50), len(lat)),
        "apply_p99_us": (statistics.median(p99), len(lat)),
        "events_per_s": (statistics.median(eps), len(lat)),
        "place_s": (place.median(), len(place.raw)),
        "peak_rss_mb": (peak_rss_mb(), None),
    }
    detail = {
        "yardstick_ref_ns": YARDSTICK_REF_NS,
        "unscaled": {"apply_p50_us": quantile_us(lat, 50), "apply_p99_us": quantile_us(lat, 99),
                     "events_per_s": len(lat) / (int(lat.sum()) / 1e9),
                     "setup_s": statistics.median(setup.raw), "place_s": statistics.median(place.raw)},
        "window_scale": [scale for _, _, scale in windows],
        "window_p50_us": p50,
        "window_p99_us": p99,
        "window_events_per_s": eps,
        "setup_s": setup.raw,
        "setup_scale": setup.scale,
        "place_s": place.raw,
        "place_scale": place.scale,
    }
    return metrics, detail


# -- event streams --------------------------------------------------------


class StreamStats:
    def __init__(self):
        self.latencies = array("q")  # untraced apply times, ns
        self.place = Timing()  # static_place at each checkpoint
        self.windows: list[tuple[int, int, float]] = []  # untraced: (lo, hi, scale)
        self.events = 0
        self.moves = 0
        self.parks = 0
        self.unparks = 0


def _note_move(report, tracked: set) -> bool:
    """Apply a reported move to the tracked covered set; False if the report
    does not describe exactly one move."""
    vacated, occupied = report.vacated, report.occupied
    if report.drone is None or (vacated is None and occupied is None):
        return False
    if vacated is not None:
        if vacated not in tracked:
            return False
        tracked.remove(vacated)
    if occupied is not None:
        if occupied in tracked:
            return False
        tracked.add(occupied)
    return True


def _tally(report, tracked: set, stats: StreamStats) -> bool:
    """Count the report's move; False if the report is inconsistent."""
    if report.moved:
        stats.moves += 1
        stats.parks += report.occupied is None
        stats.unparks += report.vacated is None
        return _note_move(report, tracked)
    return report.vacated is None and report.occupied is None and report.drone is None


def _plain_window(outcome, state, events, tracked, stats):
    apply = state.apply
    latencies = stats.latencies
    for e in events:
        t = clock()
        try:
            report = apply(e)
        except (KeyError, ValueError) as exc:
            latencies.append(clock() - t)
            outcome.fail(f"{e!r} raised {exc!r}")
            continue
        latencies.append(clock() - t)
        if not _tally(report, tracked, stats):
            outcome.fail(f"{e!r}: inconsistent {report!r}")


def _traced_window(outcome, state, twin, events, first, stamps, tracked, stats):
    apply = state.apply
    covered = state.covered_weight
    insert, delete, update = twin.insert, twin.delete, twin.update_weight
    for ordinal, e in enumerate(events, first):
        kind = e.kind
        try:
            if kind == INSERT:
                p = Point(e.id, e.x, e.y, e.w)
                code = 0
                t0 = clock()
                insert(p)
            elif kind == DELETE:
                code = 1
                t0 = clock()
                delete(e.id)
            else:
                code = 2
                t0 = clock()
                update(e.id, e.w)
            t1 = clock()
            report = apply(e)
            t2 = clock()
            weight = covered()
            t3 = clock()
        except (KeyError, ValueError) as exc:
            outcome.fail(f"{e!r} raised {exc!r}")
            continue
        stamps.extend((ordinal, code, t0, t1, t2, t3))
        if weight != report.covered_weight_after:
            outcome.fail(f"{e!r}: covered_weight() {weight!r} != report {report.covered_weight_after!r}")
        if not _tally(report, tracked, stats):
            outcome.fail(f"{e!r}: inconsistent {report!r}")


def _replay(store: PointStore, events) -> None:
    """Keep the twin store in step over events applied untraced."""
    for e in events:
        try:
            if e.kind == INSERT:
                store.insert(Point(e.id, e.x, e.y, e.w))
            elif e.kind == DELETE:
                store.delete(e.id)
            else:
                store.update_weight(e.id, e.w)
        except (KeyError, ValueError):
            pass  # the same event already failed, and was counted, on the live state


def _checkpoint(outcome, state, config, tracked, stats):
    placement = stats.place.measure(static_place, state.store, config)
    weight = state.covered_weight()
    outcome.check(weight == placement.covered_weight,
                  f"covered_weight() {weight!r} != static_place {placement.covered_weight!r}")
    outcome.check(set(state.assignment) == tracked, "assignment differs from the moves reported")
    drones = list(state.assignment.values())
    outcome.check(
        len(set(drones)) == len(drones) == min(config.m, len(state.store.cells))
        and all(0 <= d < config.m for d in drones),
        "drone assignment is not a partial injection onto the heaviest-cell count",
    )


def stream_phase(outcome, state, config, windows, stats, twin=None, spans=None, budget_ns=math.inf) -> int:
    """Apply windows of events in a closed loop and return the loop time, ns.

    Stops when the windows run out or the loop time reaches ``budget_ns``.
    With a twin store (traced run) even windows are traced and odd ones
    run untraced, so both see the same state sizes and machine load; the
    twin replays odd windows outside the timing.
    """
    tracked = set(state.assignment)
    loop_ns = 0
    t_start = clock()
    for i, events in enumerate(windows):
        traced = twin is not None and i % 2 == 0
        if traced:
            t = clock()
            _traced_window(outcome, state, twin, events, stats.events, spans.stamps, tracked, stats)
            loop_ns += clock() - t
        else:
            lo = len(stats.latencies)
            before = yardstick_ns()
            t = clock()
            _plain_window(outcome, state, events, tracked, stats)
            loop_ns += clock() - t
            stats.windows.append((lo, len(stats.latencies), 2 * YARDSTICK_REF_NS / (before + yardstick_ns())))
            if twin is not None:
                _replay(twin, events)
        outcome.attempted += len(events)
        stats.events += len(events)
        checked = (i + 1) % CHECK_EVERY == 0
        if checked:
            _checkpoint(outcome, state, config, tracked, stats)
        if loop_ns >= budget_ns and i >= 1:
            break
    if not checked:
        _checkpoint(outcome, state, config, tracked, stats)
    if spans is not None:
        spans.stream_parent = spans.add("stream", t_start, clock())
    return loop_ns


# -- layer measurements ----------------------------------------------------


def drift_cells(outcome, store: PointStore) -> int:
    """Cells whose aggregate differs from the fsum of their members' weights."""
    r = store.cell_size
    members = defaultdict(list)
    for p in store.points.values():
        members[cell_key(*cell_index(p.x, p.y, r))].append(p.w)
    outcome.check(members.keys() == store.cells.keys(), "live cells differ from the cells of live points")
    return sum(1 for key, agg in store.cells.items() if agg.weight != math.fsum(members.get(key, ())))


def intervals_split(outcome, spans, store: PointStore, config: GridConfig) -> dict:
    """Time the intervals layer piece by piece on the store's points."""
    pts = list(store.points.values())
    length = 2.0 * config.r_cov

    def instances():
        return [IntervalInstance(((p.x, p.w) for p in pts), length, config.m),
                IntervalInstance(((p.y, p.w) for p in pts), length, config.m)]

    def neighborhoods(insts):
        for inst in insts:
            for j in range(1, len(inst) + 1):
                neighborhood_query(inst, j)

    def dp_tables(insts):
        for inst in insts:
            dp_table(inst)  # dropped at once, as inside solve_mwpihp

    gc.collect()
    insts, instance_s = timed(spans, "intervals.instance", instances)
    _, neighborhood_s = timed(spans, "intervals.neighborhood", neighborhoods, insts)
    _, dp_s = timed(spans, "intervals.dp_table", dp_tables, insts)
    solved, solve_s = timed(spans, "intervals.solve_mwpihp", lambda: [solve_mwpihp(i)[0] for i in insts])
    (bx, by, bound), bound_s = timed(spans, "intervals.upper_bound_2d", upper_bound_2d, store, config)
    covered = static_place(store, config).covered_weight
    outcome.check(solved == [bx, by], f"solve_mwpihp {solved!r} != upper_bound_2d axes {[bx, by]!r}")
    outcome.check(bound >= covered and bx >= bound and by >= bound,
                  f"bound {bound!r} (x {bx!r}, y {by!r}) below covered weight {covered!r}")
    return {
        "intervals.instance_s": (instance_s, None),
        "intervals.neighborhood_s": (neighborhood_s, None),
        "intervals.dp_table_s": (dp_s, None),
        "intervals.backtrack_s": (solve_s - dp_s, None),
        "intervals.upper_bound_s": (bound_s, None),
        "intervals.dp_cells": (2 * len(pts) * config.m, None),
    }


# -- runs ----------------------------------------------------------------------


def _setup_points(wl: Workload, seed: int):
    config = GridConfig(R_COV, wl.shape, wl.m)
    return config, gen.PointSet(wl.n, extent_for(wl.n, config), seed)


def run_stream(outcome, wl: Workload, seed: int, seconds: float) -> dict:
    config, points = _setup_points(wl, seed)
    trace = gen.TraceGen(points, seed)
    windows = [trace.take(wl.window_events) for _ in range(wl.round_windows)]
    stats = StreamStats()
    setup = Timing()
    spent = 0
    state = None
    while len(setup.raw) < MIN_REPS or spent < seconds * 1e9:
        state = None  # drop the previous state before building the next
        gc.collect()
        fresh = points.points()
        state = setup.measure(build, fresh, config)
        spent += setup.raw[-1] * 1e9
        del fresh
        gc.collect()
        spent += stream_phase(outcome, state, config, windows, stats)
        outcome.check(len(state.store) == trace.live,
                      f"store holds {len(state.store)} points, the trace left {trace.live}")
    return end_to_end(setup, stats.latencies, stats.windows, stats.place)


def run_place(outcome, wl: Workload, seed: int, seconds: float) -> dict:
    config, points = _setup_points(wl, seed)
    text = points.text()
    def parse_and_load():
        parsed = parse_points(text)
        return parsed, load(parsed, config.cell_size)

    setup = Timing()
    store = None
    for rep in range(PLACE_SETUP_REPS):
        store = None
        gc.collect()
        parsed, store = setup.measure(parse_and_load)
        if rep == 0:
            outcome.check(same_points(parsed, points), "parse_points does not return the generated points")
        del parsed

    # insert keeps its points but never mutates them, and each pass drops
    # its store before the next, so the passes may share one parse
    parsed = parse_points(text)
    latencies = array("q")
    windows = []
    place = Timing()
    first = None
    t_end = clock() + seconds * 1e9
    while len(place.raw) < MIN_REPS or clock() < t_end:
        gc.collect()
        placement, (bx, by, bound) = place.measure(
            lambda: (static_place(store, config), upper_bound_2d(store, config)))
        result = (placement.covered_weight, bx, by, bound)
        first = first or result
        outcome.check(bound >= placement.covered_weight and bx >= bound and by >= bound,
                      f"bound {bound!r} (x {bx!r}, y {by!r}) below covered weight {placement.covered_weight!r}")
        outcome.check(result == first, f"placement {result!r} differs from the first rep {first!r}")
        for _ in range(INSERT_PASSES):
            insert = PointStore(config.cell_size).insert
            start = len(latencies)
            before = yardstick_ns()
            for lo in range(0, len(parsed), INSERT_BLOCK):
                block = parsed[lo:lo + INSERT_BLOCK]
                t = clock()
                try:
                    for p in block:
                        insert(p)
                except (KeyError, ValueError) as exc:
                    outcome.fail(f"insert raised {exc!r}")
                latencies.append((clock() - t) // len(block))
            windows.append((start, len(latencies), 2 * YARDSTICK_REF_NS / (before + yardstick_ns())))
            outcome.attempted += len(parsed)
    return end_to_end(setup, latencies, windows, place)


def run_traced(outcome, wl: Workload, seed: int, seconds: float, spans: Spans) -> dict:
    """Per-layer split; every layer is timed on this workload's own inputs."""
    config, points = _setup_points(wl, seed)
    text = points.text()
    parsed, parse_s = timed(spans, "formats.parse_points", parse_points, text)
    outcome.check(same_points(parsed, points), "parse_points does not return the generated points")
    store, load_s = timed(spans, "store.load", load, parsed, config.cell_size)
    del parsed
    rank_s = statistics.median(timed(spans, "placement.rank_cells", rank_cells, store)[1]
                               for _ in range(PLACEMENT_REPS))
    static_s = statistics.median(timed(spans, "placement.static_place", static_place, store, config)[1]
                                 for _ in range(PLACEMENT_REPS))
    if wl.kind == "place":
        metrics = intervals_split(outcome, spans, store, config)
        stream_seconds = seconds * PLACE_STREAM_SHARE
    else:
        probe = load(points.points(min(len(points), PROBE_POINTS)), config.cell_size)
        metrics = intervals_split(outcome, spans, probe, GridConfig(R_COV, wl.shape, min(wl.m, PROBE_M)))
        del probe
        stream_seconds = seconds

    state, init_s = timed(spans, "dynamic.init", CoverageState, store, config)
    twin = load(points.points(), config.cell_size)
    gc.collect()
    trace = gen.TraceGen(points, seed)
    stats = StreamStats()
    stream_phase(outcome, state, config, iter(lambda: trace.take(wl.window_events), None), stats, twin, spans,
                 stream_seconds * 1e9)
    outcome.check(len(state.store) == trace.live,
                  f"store holds {len(state.store)} points, the trace left {trace.live}")
    del twin

    ev = np.frombuffer(spans.stamps, dtype=np.int64).reshape(-1, 6)
    kinds = ev[:, 1]
    store_ns, apply_ns, covered_ns = ev[:, 3] - ev[:, 2], ev[:, 4] - ev[:, 3], ev[:, 5] - ev[:, 4]
    traced = len(ev)
    metrics.update({
        "store.load_s": (load_s, None),
        "store.insert_p50_us": (quantile_us(store_ns[kinds == 0], 50), int((kinds == 0).sum())),
        "store.delete_p50_us": (quantile_us(store_ns[kinds == 1], 50), int((kinds == 1).sum())),
        "store.update_p50_us": (quantile_us(store_ns[kinds == 2], 50), int((kinds == 2).sum())),
        "store.cells": (len(state.store.cells), None),
        "store.drift_cells": (drift_cells(outcome, state.store), None),
        "dynamic.init_s": (init_s, None),
        "dynamic.covered_weight_p50_us": (quantile_us(covered_ns, 50), traced),
        "dynamic.repair_self_mean_us": (float(apply_ns.mean() - store_ns.mean() - covered_ns.mean()) / 1e3,
                                        traced),
        "dynamic.moves": (stats.moves, stats.events),
        "dynamic.move_frac": (stats.moves / stats.events, stats.events),
        "dynamic.parks": (stats.parks, stats.events),
        "dynamic.unparks": (stats.unparks, stats.events),
        "placement.rank_cells_s": (rank_s, PLACEMENT_REPS),
        "placement.static_place_s": (static_s, PLACEMENT_REPS),
        "formats.parse_points_s": (parse_s, None),
        "formats.input_bytes": (len(text.encode()), None),
        # medians: one full collection or heap compaction landing in either
        # half would swing a mean by tens of percent
        "trace.overhead_frac": (float(np.median(apply_ns)) / statistics.median(stats.latencies) - 1.0, traced),
    })
    return metrics, {"yardstick_ref_ns": YARDSTICK_REF_NS, "window_scale": [sc for _, _, sc in stats.windows]}


# -- entry -----------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the result object (the last output line)."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    wl = WORKLOADS[workload] if scale == 1.0 else WORKLOADS[workload].scaled(scale)
    outcome = Outcome()
    started = time.time()
    if trace:
        spans = Spans()
        metrics, windows = run_traced(outcome, wl, seed, seconds, spans)
    elif wl.kind == "stream":
        metrics, windows = run_stream(outcome, wl, seed, seconds)
    else:
        metrics, windows = run_place(outcome, wl, seed, seconds)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    report = {
        "workload": workload,
        "params": asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "wall_s": time.time() - started,
        "environment": environment(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed / outcome.attempted,
        "failures": outcome.messages,
        "windows": windows,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
    }
    if trace:
        report["spans_file"] = stem + "-spans.npz"
        report["spans"] = spans.write(report["spans_file"])
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for name, (value, samples) in metrics.items():
        count = "" if samples is None else f"  (n={samples})"
        print(f"{name:32s} {value!r} {units[name]}{count}")
    print(f"failed_frac {report['failed_frac']!r} ({outcome.failed}/{outcome.attempted})  report {stem}.json")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
