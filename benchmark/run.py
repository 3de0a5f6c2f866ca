#!/usr/bin/env python3
"""Benchmark entry point; run it from the root of a source checkout:

    python3 benchmark/run.py --workload stream-m8-square --seed 1 --seconds 25 --trace 0

Prints one line per metric, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Reports and span files go to .bench_out/. The library is imported from
./src and nowhere else; without it the run exits nonzero and prints no
result.
"""

import argparse
import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")


def _import_program() -> None:
    package = os.path.join(SRC, "swarmcover")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no swarmcover sources at {package}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import swarmcover

    if os.path.dirname(os.path.abspath(swarmcover.__file__)) != package:
        sys.exit(f"error: imported swarmcover from {swarmcover.__file__}, not from {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's n and m (the smoke test runs tiny sizes)")
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and args.scale > 0):
        parser.error("--seconds and --scale must be positive")

    _import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
