#!/usr/bin/env python3
"""Place a drone fleet over a clustered crowd and read the report.

Three population clusters of different importance compete for two drones.
The placement snaps to the heaviest grid cells, and the axis-projection
bound tells us how far from optimal we could possibly be.
"""

import numpy as np

from swarmcover import GUARANTEE, GridConfig, Point, PointStore, cell_geometry, static_place, upper_bound_2d

rng = np.random.default_rng(42)

clusters = [
    # (center, spread, people, mean weight)  -- weight models user rank
    ((10.0, 10.0), 1.5, 60, 5.0),
    ((30.0, 12.0), 2.0, 40, 2.0),
    ((18.0, 28.0), 1.0, 25, 8.0),
]

points = []
pid = 0
for (cx, cy), spread, count, mean_w in clusters:
    xs = rng.normal(cx, spread, count)
    ys = rng.normal(cy, spread, count)
    ws = rng.exponential(mean_w, count)
    for x, y, w in zip(xs, ys, ws):
        points.append(Point(pid, float(x), float(y), float(w)))
        pid += 1

total = sum(p.w for p in points)
print(f"{len(points)} weighted points, total weight {total:.1f}")

config = GridConfig(r_cov=3.0, shape="square", m=2)
store = PointStore(config.cell_size, points)

placement = static_place(store, config)
factor = GUARANTEE[config.shape]
bound_x, bound_y, bound = upper_bound_2d(store, config)

print(f"\ncell size {config.cell_size:.1f}, {config.m} drones")
for drone, key in enumerate(placement.cells):
    if key is None:
        print(f"  drone {drone}: parked")
    else:
        g = cell_geometry(key, config)
        print(f"  drone {drone}: square at ({g.min_x:.1f}, {g.min_y:.1f}), side {g.side:.1f}")

print(f"\ncovered weight        {placement.covered_weight:8.1f}")
print(f"projection bound      {bound:8.1f}   (x-axis {bound_x:.1f}, y-axis {bound_y:.1f})")
print(f"certified lower bound {factor * bound:8.1f}   (factor {factor} of any optimum)")
print(f"\nthe fleet certainly captures >= {100 * placement.covered_weight / bound:.0f}% of the best possible weight")
