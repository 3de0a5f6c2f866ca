"""Command-line surface: place, replay, oracle, bound.

Inputs are file paths ('-' reads standard input); reports go to standard
output, errors to standard error with a nonzero exit code.
"""

import argparse
import sys

from .dynamic import build
from .formats import parse_points, parse_trace
from .grid import DISK, SQUARE, GridConfig
from .intervals import upper_bound_2d
from .oracle import exact_disk_opt, exact_square_opt
from .placement import GUARANTEE, SquareGeometry, cell_geometry, static_place
from .store import DuplicateIdError, PointStore, UnknownIdError


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _fmt(value: float) -> str:
    return repr(float(value))


def _config(args) -> GridConfig:
    return GridConfig(args.r_cov, args.shape, args.m)


def _load_store(path: str, config: GridConfig) -> PointStore:
    return PointStore(config.cell_size, parse_points(_read_text(path)))


def _geometry_line(drone: int, key: int | None, config: GridConfig) -> str:
    if key is None:
        return f"drone {drone} parked"
    g = cell_geometry(key, config)
    if isinstance(g, SquareGeometry):
        return (
            f"drone {drone} cell {key} square"
            f" min_x={_fmt(g.min_x)} min_y={_fmt(g.min_y)} side={_fmt(g.side)}"
        )
    return (
        f"drone {drone} cell {key} disk"
        f" center_x={_fmt(g.center_x)} center_y={_fmt(g.center_y)} radius={_fmt(g.radius)}"
    )


def cmd_place(args) -> int:
    config = _config(args)
    store = _load_store(args.points, config)
    placement = static_place(store, config)
    bound_x, bound_y, bound = upper_bound_2d(store, config)
    print(f"shape {config.shape} r_cov {_fmt(config.r_cov)} cell_size {_fmt(config.cell_size)} m {config.m}")
    print(f"covered_weight {_fmt(placement.covered_weight)}")
    for drone, key in enumerate(placement.cells):
        print(_geometry_line(drone, key, config))
    print(f"bound_x {_fmt(bound_x)} bound_y {_fmt(bound_y)} bound {_fmt(bound)}")
    print(f"guarantee {_fmt(GUARANTEE[config.shape])}")
    return 0


def cmd_replay(args) -> int:
    config = _config(args)
    points = parse_points(_read_text(args.points))
    events = parse_trace(_read_text(args.trace))
    state = build(points, config)
    for ordinal, event in enumerate(events, start=1):
        try:
            report = state.apply(event)
        except (DuplicateIdError, UnknownIdError, ValueError, OverflowError) as exc:
            print(f"error at event {ordinal}: {exc}", file=sys.stderr)
            return 1
        if args.verify:
            expected = static_place(state.store, config).covered_weight
            if report.covered_weight_after != expected:
                print(
                    f"verify mismatch at event {ordinal}:"
                    f" dynamic {report.covered_weight_after!r} != static {expected!r}",
                    file=sys.stderr,
                )
                return 1
        if report.moved:
            print(
                f"{ordinal} covered_weight {_fmt(report.covered_weight_after)}"
                f" swap vacated={report.vacated} occupied={report.occupied} drone={report.drone}"
            )
        else:
            print(f"{ordinal} covered_weight {_fmt(report.covered_weight_after)} no-swap")
    return 0


def cmd_oracle(args) -> int:
    config = _config(args)
    store = _load_store(args.points, config)
    points = list(store.points.values())
    if config.shape == SQUARE:
        result = exact_square_opt(points, config.r_cov, config.m)
    else:
        result = exact_disk_opt(points, config.r_cov, config.m)
    sol = static_place(store, config).covered_weight
    print(f"opt {_fmt(result.opt_weight)}")
    print(f"sol {_fmt(sol)}")
    ratio = sol / result.opt_weight if result.opt_weight > 0 else 1.0
    print(f"ratio {_fmt(ratio)}")
    return 0


def cmd_bound(args) -> int:
    config = _config(args)
    store = _load_store(args.points, config)
    bound_x, bound_y, bound = upper_bound_2d(store, config)
    print(f"bound_x {_fmt(bound_x)}")
    print(f"bound_y {_fmt(bound_y)}")
    print(f"bound {_fmt(bound)}")
    return 0


def _add_geometry_flags(parser):
    parser.add_argument("--r-cov", type=float, required=True, help="covering radius of one drone")
    parser.add_argument("--m", type=int, default=1, help="number of drones")
    parser.add_argument("--shape", choices=(SQUARE, DISK), default=SQUARE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmcover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="static placement report for a points file")
    p.add_argument("points", help="points file, or '-' for stdin")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("replay", help="replay an event trace over a points file")
    p.add_argument("points")
    p.add_argument("trace")
    _add_geometry_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check every step against a static recomputation")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("oracle", help="exact optimum on a small points file")
    p.add_argument("points")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bound", help="axis-projection upper bounds")
    p.add_argument("points")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DuplicateIdError, UnknownIdError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
