import dataclasses
import subprocess
import sys

import pytest

from conftest import random_events, random_points
from swarmcover import format_points, format_trace, static_place
from swarmcover.cli import main

THREE_CELLS = "1 0.5 0.5 3.0\n2 2.5 0.5 5.0\n3 4.5 0.5 1.0\n"
STRADDLE = (
    "1 0.99 0.99 1\n2 0.99 1.01 1\n3 1.01 0.99 1\n4 1.01 1.01 1\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_place_three_cells(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text(THREE_CELLS)
    code, out, err = run_cli(capsys, "place", str(f), "--r-cov", "0.5", "--m", "2")
    assert code == 0 and err == ""
    assert "covered_weight 8.0" in out
    assert "shape square r_cov 0.5 cell_size 1.0 m 2" in out
    assert "guarantee 0.25" in out
    assert "bound_x" in out and "bound_y" in out
    assert out.count("drone") == 2


def test_place_empty_file(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("# nothing here\n")
    code, out, _ = run_cli(capsys, "place", str(f), "--r-cov", "0.5", "--m", "3")
    assert code == 0
    assert "covered_weight 0.0" in out
    assert out.count("parked") == 3


def test_place_disk_header_cell_size(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 0.2 0.2 2.0\n")
    code, out, _ = run_cli(capsys, "place", str(f), "--r-cov", "1.0", "--shape", "disk")
    assert code == 0
    assert "cell_size 1.4142135623730951" in out
    assert "guarantee 0.14285714285714285" in out
    assert "disk center_x=" in out


def test_place_disk_r_cov_past_half_the_float_range(tmp_path, capsys):
    # cell size 1.414e308 is finite; the projected length 2 * r_cov is not,
    # and its intervals still stab exactly: the one point's weight
    f = tmp_path / "pts.txt"
    f.write_text("1 0.5 0.5 3.0\n")
    code, out, err = run_cli(capsys, "place", str(f), "--r-cov", "1e308", "--shape", "disk")
    assert code == 0 and err == ""
    assert "covered_weight 3.0" in out
    assert "bound_x 3.0 bound_y 3.0 bound 3.0" in out


def test_place_parse_error_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 a b c\n")
    code, out, err = run_cli(capsys, "place", str(f), "--r-cov", "0.5")
    assert code != 0
    assert "line 1" in err


def test_place_unrepresentable_cell_index_exits_2(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 1e300 0.0 1.0\n")
    code, out, err = run_cli(capsys, "place", str(f), "--r-cov", "1e-300")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_bound_r_cov_whose_cell_size_overflows_exits_2_naming_r_cov(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text(THREE_CELLS)
    code, out, err = run_cli(capsys, "bound", str(f), "--r-cov", "1e308")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: r_cov 1e+308 ")


def test_covered_total_past_float_range_is_an_error_not_a_traceback(tmp_path, capsys):
    # each cell weight is finite; their sum is not
    points = tmp_path / "pts.txt"
    points.write_text("1 0.5 0.5 1e308\n2 2.6 0.5 1e308\n")
    code, out, err = run_cli(capsys, "place", str(points), "--r-cov", "0.5", "--m", "2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    # the same two points reached by an event: replay stops at that event
    points.write_text("1 0.5 0.5 1e308\n")
    trace = tmp_path / "trace.txt"
    trace.write_text("I 2 2.6 0.5 1e308\n")
    code, out, err = run_cli(capsys, "replay", str(points), str(trace), "--r-cov", "0.5", "--m", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error at event 1:") and len(err.splitlines()) == 1


def test_replay_swap_and_noswap(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("a 0.5 0.5 10\nb 2.5 0.5 7\n")
    trace = tmp_path / "trace.txt"
    trace.write_text("U b 9.0\nU b 12.0\n")
    code, out, err = run_cli(
        capsys, "replay", str(pts), str(trace), "--r-cov", "0.5", "--m", "1", "--verify"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("1 covered_weight 10.0 no-swap")
    assert "swap vacated=0 occupied=10" in lines[1]
    assert "covered_weight 12.0" in lines[1]


def test_replay_verify_reports_a_mismatch(tmp_path, capsys, monkeypatch):
    def off_by_one(store, config):
        placement = static_place(store, config)
        return dataclasses.replace(placement, covered_weight=placement.covered_weight + 1.0)

    monkeypatch.setattr("swarmcover.cli.static_place", off_by_one)
    pts = tmp_path / "pts.txt"
    pts.write_text("a 0.5 0.5 10\nb 2.5 0.5 7\n")
    trace = tmp_path / "trace.txt"
    trace.write_text("U b 9.0\nU b 12.0\n")
    code, out, err = run_cli(
        capsys, "replay", str(pts), str(trace), "--r-cov", "0.5", "--m", "1", "--verify"
    )
    assert code == 1 and out == ""
    assert err.splitlines() == ["verify mismatch at event 1: dynamic 10.0 != static 11.0"]


def test_replay_unknown_id_aborts(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("a 0.5 0.5 10\n")
    trace = tmp_path / "trace.txt"
    trace.write_text("D zz\n")
    code, out, err = run_cli(capsys, "replay", str(pts), str(trace), "--r-cov", "0.5")
    assert code != 0
    assert "event 1" in err


def test_replay_verify_long_random_trace(tmp_path, capsys):
    points = random_points(40, seed=3, extent=6.0)
    events = random_events(40, 1000, seed=4, extent=6.0)
    pts = tmp_path / "pts.txt"
    pts.write_text(format_points(points))
    trace = tmp_path / "trace.txt"
    trace.write_text(format_trace(events))
    code, out, err = run_cli(
        capsys, "replay", str(pts), str(trace), "--r-cov", "0.5", "--m", "4", "--verify"
    )
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 1000


def test_replay_deterministic_report(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text(THREE_CELLS)
    trace = tmp_path / "trace.txt"
    trace.write_text("U 3 9.0\nD 2\nI 9 6.5 0.5 2.5\n")
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "replay", str(pts), str(trace), "--r-cov", "0.5", "--m", "2")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: the axis bound sums window weights in floats")
def test_place_bound_is_at_least_the_covered_weight(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 0.5 0.5 1e16\n2 100.2 100.2 1.0\n3 100.3 100.3 1.0\n4 100.4 100.4 1.0\n")
    code, out, _ = run_cli(capsys, "place", str(f), "--r-cov", "0.5", "--m", "2")
    assert code == 0
    words = out.split()
    assert float(words[words.index("bound") + 1]) >= float(words[words.index("covered_weight") + 1])


def test_oracle_straddle_ratio(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text(STRADDLE)
    code, out, _ = run_cli(capsys, "oracle", str(f), "--r-cov", "0.5", "--m", "1")
    assert code == 0
    assert "opt 4.0" in out
    assert "sol 1.0" in out
    assert "ratio 0.25" in out


def test_oracle_single_point_ratio_one(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 0.3 0.3 5\n")
    code, out, _ = run_cli(capsys, "oracle", str(f), "--r-cov", "0.5", "--m", "1")
    assert code == 0
    assert "ratio 1.0" in out


def test_oracle_disk_shape(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("1 0.0 0.0 1.0\n2 2.0 0.0 2.0\n")
    code, out, _ = run_cli(capsys, "oracle", str(f), "--r-cov", "1.0", "--m", "1", "--shape", "disk")
    assert code == 0
    assert "opt 3.0" in out  # both points sit on one radius-1 disk


def test_oracle_size_guard_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{i} {i}.0 0.0 1\n" for i in range(50)))
    code, out, err = run_cli(capsys, "oracle", str(f), "--r-cov", "0.5", "--m", "1")
    assert code != 0
    assert "guard" in err


def test_bound_reports_three_lines(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text(STRADDLE)
    code, out, _ = run_cli(capsys, "bound", str(f), "--r-cov", "0.5", "--m", "1")
    assert code == 0
    assert "bound_x 4.0" in out
    assert "bound_y 4.0" in out
    assert out.strip().splitlines()[-1] == "bound 4.0"


def test_bound_window_weights_past_float_range(tmp_path, capsys):
    # the y-intervals are disjoint, so one piercing point takes 1e308; the
    # x-intervals coincide and their 2e308 is past the float range
    f = tmp_path / "pts.txt"
    f.write_text("1 0.5 0.5 1e308\n2 0.5 2.6 1e308\n")
    code, out, _ = run_cli(capsys, "bound", str(f), "--r-cov", "0.5", "--m", "1")
    assert code == 0
    assert out.strip().splitlines() == ["bound_x inf", "bound_y 1e+308", "bound 1e+308"]


def test_bench_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(THREE_CELLS))
    code, out, _ = run_cli(capsys, "place", "-", "--r-cov", "0.5", "--m", "2")
    assert code == 0
    assert "covered_weight 8.0" in out


def test_console_entry_point(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text(THREE_CELLS)
    proc = subprocess.run(
        [sys.executable, "-m", "swarmcover.cli", "place", str(f), "--r-cov", "0.5", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "covered_weight 8.0" in proc.stdout
