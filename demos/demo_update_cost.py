#!/usr/bin/env python3
"""Show that per-event cost barely moves while the instance grows 100x.

Each row builds a fresh random instance, replays five thousand mixed
events and reports the per-event latency distribution. Growth consistent
with O(log n) means the last column should stay nearly flat.
"""

import random
import statistics
import time

from swarmcover import Event, GridConfig, Point, build

SIZES = [1_000, 10_000, 100_000]
EVENTS = 5_000

config = GridConfig(r_cov=0.5, shape="square", m=8)
rng = random.Random(17)


def instance(n):
    """n random points at about 8 per cell, and a mixed insert/delete/update
    stream over them that keeps the population roughly stable."""
    extent = config.cell_size * (n / 8.0) ** 0.5
    points = [
        Point(i, rng.uniform(0.0, extent), rng.uniform(0.0, extent), rng.uniform(0.0, 10.0))
        for i in range(n)
    ]
    live = list(range(n))
    events = []
    for next_id in range(n, n + EVENTS):
        roll = rng.random()
        if roll < 0.3:
            events.append(Event.insert(
                next_id, rng.uniform(0.0, extent), rng.uniform(0.0, extent), rng.uniform(0.0, 10.0)
            ))
            live.append(next_id)
        elif roll < 0.6:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            events.append(Event.delete(live.pop()))
        else:
            events.append(Event.update(live[rng.randrange(len(live))], rng.uniform(0.0, 10.0)))
    return points, events


print(f"{'points':>10s} {'build (s)':>10s} {'median (us)':>12s} {'p99 (us)':>10s} {'vs n=1e3':>9s}")
base = None
for n in SIZES:
    points, events = instance(n)
    t0 = time.perf_counter()
    state = build(points, config)
    build_seconds = time.perf_counter() - t0
    latencies_us = []
    for event in events:
        t = time.perf_counter()
        state.apply(event)
        latencies_us.append((time.perf_counter() - t) * 1e6)
    latencies_us.sort()
    median_us = statistics.median(latencies_us)
    p99_us = latencies_us[int(0.99 * (len(latencies_us) - 1))]
    base = base or median_us
    print(f"{n:>10,d} {build_seconds:>10.3f} {median_us:>12.2f} "
          f"{p99_us:>10.2f} {median_us / base:>8.2f}x")

print("\na 100x larger instance costs about the same per event; linear-scan")
print("maintenance would show a ~100x blowup in the last column instead")
