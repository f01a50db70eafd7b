"""Tests for the command-line interface."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import dfsane.bench
from dfsane.cli import dispatch
from dfsane.core import SolverConfig
from dfsane.problems import booth
from dfsane.solver import solve

FIXTURE = """2
3 0 3
0 5 -10
0 0
"""


def test_solve_with_trace(capsys):
    code = dispatch(["solve", "--problem", "expfun2", "--n", "3", "--iprint", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("Iter:")]
    assert abs(float(lines[0].split("=")[1]) - 0.02060606) <= 1e-7
    assert "success!" in out
    # report block, in order
    fields = [ln.split(" = ")[0] for ln in out.splitlines() if " = " in ln and not ln.startswith("Iter")]
    assert fields == ["x", "res", "normF", "iter", "fcnt", "istop"]


def test_solve_json_roundtrip(capsys):
    code = dispatch(["solve", "--problem", "booth", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["x", "res", "normF", "iter", "fcnt", "istop", "wall_seconds"]
    assert data["istop"] == 0
    assert data["iter"] <= 10

    direct = solve(booth(), SolverConfig(epsf=1e-6 * math.sqrt(2))).to_json_dict()
    del data["wall_seconds"], direct["wall_seconds"]
    assert data == direct


def test_solve_unknown_problem(capsys):
    code = dispatch(["solve", "--problem", "nope"])
    err = capsys.readouterr().err
    assert code != 0
    assert "unknown problem" in err


def test_non_converged_solve_still_exits_zero(capsys):
    code = dispatch(["solve", "--problem", "broyden-tri", "--maxit", "0",
                     "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["istop"] == 1


def test_report_vector_is_truncated(capsys):
    code = dispatch(["solve", "--problem", "expfun2", "--n", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(90 more)" in out


def test_solve_rejects_bad_flag_values(capsys):
    assert dispatch(["solve", "--problem", "booth", "--nhlim", "1"]) != 0
    capsys.readouterr()


def test_solve_with_x0_file(capsys, tmp_path):
    start = tmp_path / "x0.txt"
    start.write_text("1.0 3.0\n")
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start),
                     "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["iter"] == 0 and data["fcnt"] == 1  # started at the root


def test_solve_x0_file_length_mismatch(capsys, tmp_path):
    start = tmp_path / "x0.txt"
    start.write_text("1.0 2.0 3.0\n")
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start)])
    assert code != 0
    capsys.readouterr()


def test_bench_fixture_dir(capsys, tmp_path):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "diag.txt").write_text(FIXTURE)
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--fixture-dir", str(fdir), "--budget", "5",
                     "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert out_csv.exists()
    assert "accelerated: solved 1/1" in out
    assert "plain: solved 1/1" in out


def test_bench_budget_and_cap_reach_every_solve(capsys, tmp_path, monkeypatch):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "diag.txt").write_text(FIXTURE)
    seen = []
    real_solve = dfsane.bench.solve

    def spy(problem, cfg):
        seen.append(cfg)
        return real_solve(problem, cfg)

    monkeypatch.setattr(dfsane.bench, "solve", spy)
    code = dispatch(["bench", "--fixture-dir", str(fdir), "--budget", "7.5",
                     "--feval-cap", "1234", "--out", str(tmp_path / "bench.csv")])
    capsys.readouterr()
    assert code == 0
    assert [cfg.mode for cfg in seen] == ["accelerated", "plain"]
    assert all(cfg.time_budget_seconds == 7.5 and cfg.max_feval == 1234
               for cfg in seen)


def test_bench_fixture_dir_from_env(capsys, tmp_path, monkeypatch):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "diag.txt").write_text(FIXTURE)
    monkeypatch.setenv("DFSANE_FIXTURE_DIR", str(fdir))
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--solvers", "accelerated",
                     "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    assert out_csv.exists()


def test_bench_requires_some_problems(capsys):
    code = dispatch(["bench", "--solvers", "plain"])
    assert code != 0
    capsys.readouterr()


def test_bench_exits_zero_on_unsolved_problems(capsys, tmp_path):
    # singular, inconsistent system: no solution exists
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "singular.txt").write_text("2\n1 0 0\n0 0 1\n0 0\n")
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--fixture-dir", str(fdir), "--budget", "0.5",
                     "--solvers", "accelerated", "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "accelerated: solved 0/1" in out


def test_bench_rejects_unknown_solver(capsys, tmp_path):
    code = dispatch(["bench", "--suite", "--solvers", "warp-drive",
                     "--out", str(tmp_path / "x.csv")])
    assert code != 0
    capsys.readouterr()


def test_profile_end_to_end(capsys, tmp_path):
    import csv

    records_csv = tmp_path / "records.csv"
    with open(records_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "n", "solver", "normF", "iter", "feval",
                    "time", "solved"])
        w.writerow(["p1", 2, "m1", 0.0, 1, 1, 0.1, "true"])
        w.writerow(["p2", 2, "m1", 0.0, 1, 2, 0.1, "true"])
        w.writerow(["p1", 2, "m2", 0.0, 1, 2, 0.1, "true"])
        w.writerow(["p2", 2, "m2", 0.0, 1, 1, 0.1, "true"])
    out_csv = tmp_path / "profile.csv"
    out_svg = tmp_path / "profile.svg"
    code = dispatch(["profile", "--inputs", str(records_csv),
                     "--metric", "feval", "--out-csv", str(out_csv),
                     "--out-svg", str(out_svg)])
    capsys.readouterr()
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert "m1,1.0,0.5" in rows
    assert "m1,2.0,1.0" in rows
    assert out_svg.read_text().startswith("<svg")


def test_list_prints_registry(capsys):
    code = dispatch(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "booth" in out and "expfun2" in out


def test_usage_error_is_nonzero(capsys):
    assert dispatch(["frobnicate"]) != 0
    capsys.readouterr()


def test_console_script_smoke():
    # Without an installed console script, run the package as a module, from
    # the directory these tests imported it from.
    env = dict(os.environ)
    if shutil.which("dfsane"):
        command = ["dfsane"]
    else:
        command = [sys.executable, "-m", "dfsane"]
        src = str(Path(dfsane.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([*command, "solve", "--problem", "booth", "--json"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["istop"] == 0
