#!/usr/bin/env python3
"""Squeeze the heuristic between the exact optimum and the upper bound.

On oracle-sized instances we can compute the true optimum by brute force
and see where the grid heuristic actually lands between its worst-case
factor and the axis-projection bound. The final instance is the tightness
witness: four unit-weight points hugging a grid corner, where one square
placed on the corner covers everything but every single cell holds just
one point.
"""

import random

from swarmcover import (
    GridConfig,
    Point,
    PointStore,
    exact_square_opt,
    static_place,
    upper_bound_2d,
)

rng = random.Random(7)


def report(name, points, r_cov, m):
    config = GridConfig(r_cov, "square", m)
    store = PointStore(config.cell_size, points)
    sol = static_place(store, config).covered_weight
    opt = exact_square_opt(points, r_cov, m).opt_weight
    _, _, bound = upper_bound_2d(store, config)
    print(f"{name:24s} heuristic {sol:6.2f}   optimum {opt:6.2f}   bound {bound:6.2f}   "
          f"ratio {sol / opt if opt else 1.0:.3f}")


print(f"{'instance':24s} {'SOL':>9s} {'OPT':>9s} {'UB':>8s}   SOL/OPT  (worst case 0.250)")
for trial in range(6):
    n = rng.randint(6, 12)
    m = rng.randint(1, 3)
    points = [
        Point(i, rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10))
        for i in range(n)
    ]
    report(f"random n={n} m={m}", points, rng.uniform(0.4, 1.5), m)

witness = [
    Point(i, 1 + dx, 1 + dy, 1.0)
    for i, (dx, dy) in enumerate([(-0.01, -0.01), (-0.01, 0.01), (0.01, -0.01), (0.01, 0.01)])
]
report("corner-straddle witness", witness, 0.5, 1)
