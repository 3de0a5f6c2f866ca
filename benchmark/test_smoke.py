"""Tiny-size smoke runs of every workload, untraced and traced.

Run from the repository root: ``python3 -m pytest -q benchmark``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert (ROOT / ".bench_out" / f"{workload}-seed3-trace1-spans.npz").is_file()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_gives_same_inputs():
    code = (
        "import sys; sys.path[:0] = ['src', 'benchmark']; import gen;"
        "p = gen.PointSet(500, 20.0, 7); t = gen.TraceGen(p, 7);"
        "print(repr((p.text(), t.take(5000), t.live)))"
    )
    runs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
            for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
