import subprocess
import sys

from swarmcover import random_events, random_points
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
    pts.write_text("".join(f"{p.id} {p.x!r} {p.y!r} {p.w!r}\n" for p in points))
    trace = tmp_path / "trace.txt"
    lines = []
    for e in events:
        if e.kind == "insert":
            lines.append(f"I {e.id} {e.x!r} {e.y!r} {e.w!r}\n")
        elif e.kind == "delete":
            lines.append(f"D {e.id}\n")
        else:
            lines.append(f"U {e.id} {e.w!r}\n")
    trace.write_text("".join(lines))
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


def test_bench_rows_and_zero_events(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "100,1000", "--events", "50", "--seed", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n events")
    assert len(rows) == 3
    code, out, _ = run_cli(capsys, "bench", "--sizes", "100", "--events", "0", "--seed", "1")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("100 0 ")


def test_bench_generation_is_seed_deterministic():
    a = random_points(500, seed=9, extent=5.0)
    b = random_points(500, seed=9, extent=5.0)
    assert [(p.id, p.x, p.y, p.w) for p in a] == [(p.id, p.x, p.y, p.w) for p in b]
    ea = random_events(500, 200, seed=9, extent=5.0)
    eb = random_events(500, 200, seed=9, extent=5.0)
    assert ea == eb


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
