"""Tests for the command-line interface."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfsane.bench
from dfsane.cli import build_parser, dispatch
from dfsane.core import SolverConfig
from dfsane.problems import REGISTRY, booth, expfun2, load_linear_fixture, make, suite_builtin
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
    assert fields == ["x", "res", "normF", "iter", "fcnt", "istop", "reason"]
    assert out.rstrip().endswith("reason = converged")


def test_iprint_trace_format(capsys):
    code = dispatch(["solve", "--problem", "booth", "--iprint", "0"])
    out = capsys.readouterr().out
    rep = solve(booth(), SolverConfig(), trace=[])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("Iter:")]
    assert len(lines) == rep.iter + 1
    first = float(lines[0].split("=")[1])
    assert first == 74.0
    assert "success!" in out


def test_iprint_levels_add_detail(capsys):
    trace = []
    solve(expfun2(3), SolverConfig(maxit=3), trace=trace)
    for iprint, tags in ((0, ()), (1, ("ls:",)), (2, ("ls:", "accel:"))):
        assert dispatch(["solve", "--problem", "expfun2", "--n", "3", "--maxit", "3",
                         "--iprint", str(iprint)]) == 0
        lines = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
        for tag in ("ls:", "accel:"):
            tagged = [ln for ln in lines if ln.startswith(tag)]
            assert len(tagged) == (len(trace) if tag in tags else 0)
    for rec, ls_line, accel_line in zip(
            trace, [ln for ln in lines if ln.startswith("ls:")],
            [ln for ln in lines if ln.startswith("accel:")]):
        assert f"dir = {rec.direction}" in ls_line
        assert f"evals = {rec.ls_evals}" in ls_line
        assert f"rank = {rec.rank}" in accel_line
        assert f"accepted = {rec.accepted}" in accel_line


def _iter_lines(argv, capsys):
    assert dispatch(["solve"] + argv) == 0
    out = capsys.readouterr().out
    return [ln for ln in out.splitlines() if ln.startswith("Iter:")], out


@pytest.mark.parametrize("iprint", ["0", "2"])
def test_iprint_last_iterate_line(capsys, tmp_path, iprint):
    # The last iterate opens no record: its line comes from the record before
    # it or, with none, from the report.
    lines, out = _iter_lines(["--problem", "expfun2", "--n", "3", "--maxit", "0",
                              "--iprint", iprint], capsys)
    assert len(lines) == 1 and "success!" not in out

    trace = []
    solve(expfun2(3), SolverConfig(maxit=3), trace=trace)
    lines, out = _iter_lines(["--problem", "expfun2", "--n", "3", "--maxit", "3",
                              "--iprint", iprint], capsys)
    assert lines[-1] == f"Iter:  3  f =  {trace[2].f_next!r}"
    assert "success!" not in out

    start = tmp_path / "x0.txt"
    start.write_text("1000 1000 1000\n")
    lines, out = _iter_lines(["--problem", "expfun2", "--n", "3", "--x0-file", str(start),
                              "--iprint", iprint], capsys)
    assert lines == [] and "istop = 3" in out

    _, out = _iter_lines(["--problem", "booth", "--epsf", "1e9", "--iprint", iprint],
                         capsys)
    assert out.startswith("Iter:  0  f =  74.0\nsuccess!\n\nx = ")


def test_solve_rejects_iprint_3(capsys):
    assert dispatch(["solve", "--problem", "booth", "--iprint", "3"]) == 2
    assert "invalid choice: 3" in capsys.readouterr().err


@pytest.mark.parametrize("iprint", ["0", "1", "2"])
def test_solve_rejects_json_with_trace_lines(capsys, monkeypatch, iprint):
    # The JSON report cannot share stdout with the trace lines.
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("dfsane.cli.solve", no_solve)
    code = dispatch(["solve", "--problem", "booth", "--json", "--iprint", iprint])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --json takes no --iprint 0, 1 or 2: both write to stdout\n"


def test_solve_json_roundtrip(capsys):
    code = dispatch(["solve", "--problem", "booth", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["x", "res", "normF", "iter", "fcnt", "istop", "reason",
                          "wall_seconds"]
    assert data["istop"] == 0 and data["reason"] == "converged"
    assert data["iter"] <= 10

    direct = solve(booth(), SolverConfig(epsf=1e-6 * math.sqrt(2))).to_json_dict()
    del data["wall_seconds"], direct["wall_seconds"]
    assert data == direct


def test_solve_json_writes_non_finite_values_as_null(capsys, tmp_path):
    start = tmp_path / "x0.txt"
    start.write_text("1000 1000 1000\n")  # e^1000 overflows every component

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    code = dispatch(["solve", "--problem", "expfun2", "--x0-file", str(start), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out, parse_constant=reject)
    assert data["res"] == [None, None, None] and data["normF"] is None
    assert data["x"] == [1000.0, 1000.0, 1000.0]
    assert data["istop"] == 3


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


def test_solve_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["solve", "--problem", "booth"])
    assert (args.nhlim, args.mode) == (SolverConfig().nhlim, SolverConfig().mode)


def test_solve_with_x0_file(capsys, tmp_path):
    start = tmp_path / "x0.txt"
    start.write_text("1.0 3.0\n")
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start),
                     "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["iter"] == 0 and data["fcnt"] == 1  # started at the root


def test_solve_x0_file_length_mismatch(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("dfsane.cli.solve", lambda *a, **k: pytest.fail("the solve ran"))
    start = tmp_path / "x0.txt"
    start.write_text("1.0 2.0 3.0\n")
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: expected a vector of length 2, got 3\n"


@pytest.mark.parametrize("content", [None, "a b\n", "", "# no numbers\n"],
                         ids=["missing", "not-numeric", "empty", "comment-only"])
def test_solve_x0_file_unreadable(capsys, tmp_path, content):
    start = tmp_path / "x0.txt"
    if content is not None:
        start.write_text(content)
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("content, token", [("nan 1\n", "nan"), ("1 inf\n", "inf"),
                                            ("-inf 0\n", "-inf")],
                         ids=["nan", "inf", "minus-inf"])
def test_solve_rejects_a_non_finite_start_entry(capsys, tmp_path, monkeypatch, content, token):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr("dfsane.cli.solve", no_solve)
    start = tmp_path / "x0.txt"
    start.write_text(content)
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {start}: {token!r} is not a finite number\n"


def _last_number(token):
    """A layout that puts ``token`` in place of the file's last number."""
    return lambda text: text[:text.rstrip().rfind(" ") + 1] + token + "\n"


# Layouts of a number file, each a map from its plain text, with the token
# that read_numbers must reject (None: the file reads as its plain text).
NUMBER_FILE_CASES = {
    "several-lines": (lambda text: text.replace(" ", "\n"), None),
    "comments": (lambda text: "# root\n" + text.replace("\n", "  # x*\n"), None),
    "not-a-number": (_last_number("x"), "x"),
    "nan": (_last_number("nan"), "nan"),
    "inf": (_last_number("inf"), "inf"),
    "minus-inf": (_last_number("-inf"), "-inf"),
}


@pytest.mark.parametrize("case", NUMBER_FILE_CASES)
def test_x0_file_layouts(capsys, tmp_path, case):
    layout, bad = NUMBER_FILE_CASES[case]
    start = tmp_path / "x0.txt"
    start.write_text(layout("1.0 3.0\n"))  # booth's root
    if case == "comments":
        assert start.read_text() == "# root\n1.0 3.0  # x*\n"
    code = dispatch(["solve", "--problem", "booth", "--x0-file", str(start), "--json"])
    captured = capsys.readouterr()
    if bad is None:
        assert code == 0 and json.loads(captured.out)["iter"] == 0
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {start}: {bad!r} is not a finite number\n"


@pytest.mark.parametrize("case", NUMBER_FILE_CASES)
def test_fixture_layouts(capsys, tmp_path, case):
    layout, bad = NUMBER_FILE_CASES[case]
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    path = fdir / "diag.txt"
    path.write_text(layout(FIXTURE))
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--fixture-dir", str(fdir), "--out", str(out_csv)])
    captured = capsys.readouterr()
    if bad is None:
        assert code == 0 and "accelerated: solved 1/1" in captured.out
        (tmp_path / "plain.txt").write_text(FIXTURE)
        got, want = load_linear_fixture(path), load_linear_fixture(tmp_path / "plain.txt")
        x = np.array([0.5, -2.0])
        assert got.x0.tobytes() == want.x0.tobytes()
        assert got.residual(x).tobytes() == want.residual(x).tobytes()
    else:
        assert code == 2 and captured.out == "" and not out_csv.exists()
        assert captured.err == f"error: {path}: {bad!r} is not a finite number\n"


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_number_file_that_is_not_text_is_one_error_line(capsys, tmp_path, command):
    # Path.read_text raised UnicodeDecodeError, a ValueError whose message
    # did not name the file.
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    path = fdir / "bad.txt"
    path.write_bytes(b"\xff\xfe1 2\n")
    args = (["solve", "--problem", "booth", "--x0-file", str(path)] if command == "solve"
            else ["bench", "--fixture-dir", str(fdir), "--out", str(tmp_path / "bench.csv")])
    code = dispatch(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "can't decode byte 0xff" in captured.err


@pytest.mark.parametrize("warnings_flag", ["default", "error"])
def test_solve_empty_x0_file_is_one_error_line(tmp_path, warnings_flag):
    # numpy reports an empty file with a UserWarning: printed to stderr by
    # default, raised under -W error.  Neither may reach the user.
    start = tmp_path / "x0.txt"
    start.write_text("")
    src = str(Path(dfsane.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", warnings_flag, "-m", "dfsane", "solve",
                           "--problem", "booth", "--x0-file", str(start)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--fixture-dir"], ids=["flag"])
@pytest.mark.parametrize("kind", ["missing", "regular-file"])
def test_bench_fixture_path_not_a_directory(capsys, tmp_path, flag, kind):
    fdir = tmp_path / "fixtures"
    if kind == "regular-file":
        fdir.write_text(FIXTURE)
    code = dispatch(["bench", "--suite", flag, str(fdir), "--out", str(tmp_path / "bench.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(fdir) in err
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("flag", ["--fixture-dir"], ids=["flag"])
def test_bench_rejects_an_output_that_is_a_fixture(capsys, tmp_path, monkeypatch, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("dfsane.cli.run_suite", no_run)
    (tmp_path / "lin.txt").write_text(FIXTURE)
    monkeypatch.chdir(tmp_path)
    code = dispatch(["bench", "--out", "lin.txt", flag, "."])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: output path 'lin.txt' is the same file as input 'lin.txt'\n"
    assert captured.out == ""
    assert (tmp_path / "lin.txt").read_bytes() == FIXTURE.encode()


@pytest.mark.parametrize("out", ["new.txt", "sub/../new.txt"])
def test_bench_rejects_a_txt_output_that_the_next_run_reads_as_a_fixture(capsys, tmp_path,
                                                                         monkeypatch, out):
    (tmp_path / "lin.txt").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as patched:
        patched.setattr("dfsane.cli.run_suite", lambda *a, **k: pytest.fail("the suite ran"))
        code = dispatch(["bench", "--fixture-dir", ".", "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: output path {out!r} is a *.txt file in the fixture directory\n"
    assert sorted(os.listdir(tmp_path)) == ["lin.txt", "sub"]
    # Outside the fixture directory a *.txt output is fine, run after run.
    for name in ("sub/a.txt", "sub/b.txt"):
        assert dispatch(["bench", "--fixture-dir", ".", "--out", name]) == 0
    assert capsys.readouterr().err == ""


def test_bench_out_in_missing_directory_fails_before_the_suite(capsys, tmp_path,
                                                              monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("dfsane.cli.run_suite", no_run)
    missing = tmp_path / "missing"
    code = dispatch(["bench", "--suite", "--out", str(missing / "bench.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: output directory {str(missing)!r} does not exist\n"
    assert captured.out == "" and not missing.exists()


@pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
def test_profile_out_in_missing_directory(capsys, tmp_path, flag):
    records_csv = tmp_path / "records.csv"
    dfsane.bench.write_records_csv(
        [dfsane.bench.BenchRecord("p1", 2, "m1", 0.0, 1, 1, 0.1, True)], records_csv)
    missing = tmp_path / "missing"
    out_csv = tmp_path / "profile.csv"
    # a repeated --out-csv overrides the first one
    code = dispatch(["profile", "--inputs", str(records_csv), "--out-csv", str(out_csv),
                     flag, str(missing / "profile.out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: output directory {str(missing)!r} does not exist\n"
    assert captured.out == "" and not out_csv.exists()


@pytest.mark.parametrize("kind", ["directory", "empty"])
def test_bench_bad_out_path_fails_before_the_suite(capsys, tmp_path, monkeypatch, kind):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("dfsane.cli.run_suite", no_run)
    out = str(tmp_path) if kind == "directory" else ""
    code = dispatch(["bench", "--suite", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("flag, kind", [("--out-svg", "directory"), ("--out-csv", "empty"),
                                        ("--out-csv", "directory"), ("--out-svg", "empty")])
def test_profile_bad_out_path_writes_nothing(capsys, tmp_path, monkeypatch, flag, kind):
    records_csv = tmp_path / "records.csv"
    dfsane.bench.write_records_csv(
        [dfsane.bench.BenchRecord("p1", 2, "m1", 0.0, 1, 1, 0.1, True)], records_csv)
    monkeypatch.chdir(tmp_path)
    bad = str(tmp_path) if kind == "directory" else ""
    # for --out-csv, the second one overrides the first
    code = dispatch(["profile", "--inputs", str(records_csv), "--out-csv", "profile.csv",
                     flag, bad])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


@pytest.mark.parametrize("outputs, taken", [
    (["--out-csv", "records.csv"], "input {input!r}"),
    (["--out-svg", "sub/../records.csv"], "input {input!r}"),
    (["--out-csv", "link.csv"], "input {input!r}"),
    (["--out-csv", "p.csv", "--out-svg", "./p.csv"], "output 'p.csv'"),
], ids=["out-csv-is-the-input", "out-svg-is-the-input", "symlink-to-the-input",
        "out-svg-is-out-csv"])
def test_profile_rejects_an_output_that_is_an_input_or_the_other_output(
        capsys, tmp_path, monkeypatch, outputs, taken):
    records_csv = tmp_path / "records.csv"
    dfsane.bench.write_records_csv(
        [dfsane.bench.BenchRecord("p1", 2, "m1", 0.0, 1, 1, 0.1, True)], records_csv)
    before = records_csv.read_bytes()
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(records_csv)
    monkeypatch.chdir(tmp_path)
    code = dispatch(["profile", "--inputs", str(records_csv)] + outputs)
    captured = capsys.readouterr()
    assert code == 2
    taken = taken.format(input=str(records_csv))
    assert captured.err == f"error: output path {outputs[-1]!r} is the same file as {taken}\n"
    assert captured.out == ""
    assert records_csv.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "records.csv", "sub"]


@pytest.mark.parametrize("solvers", [",", "", " , "])
def test_bench_rejects_empty_solver_list(capsys, tmp_path, solvers):
    out_csv = tmp_path / "x.csv"
    code = dispatch(["bench", "--suite", "--solvers", solvers, "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: no solver mode given\n"
    assert captured.out == "" and not out_csv.exists()


def test_package_error_is_not_reported_as_bad_input(capsys, monkeypatch):
    # Only bad user input becomes an error line; a fault in the package
    # keeps its traceback.
    def broken(*args, **kwargs):
        raise ValueError("bug in the solver")

    monkeypatch.setattr("dfsane.cli.solve", broken)
    with pytest.raises(ValueError, match="bug in the solver"):
        dispatch(["solve", "--problem", "booth"])
    assert capsys.readouterr().err == ""


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


def test_bench_fixture_with_nan_is_an_input_error(capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("dfsane.cli.run_suite", no_run)
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "diag.txt").write_text(FIXTURE.replace("-10", "nan"))
    code = dispatch(["bench", "--fixture-dir", str(fdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {fdir / 'diag.txt'}: 'nan' is not a finite number\n"


def test_bench_rejects_a_fixture_that_repeats_a_suite_problem(capsys, tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr("dfsane.bench.solve", no_solve)
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "booth.txt").write_text(FIXTURE)            # 2 x 2, as the suite's booth
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--suite", "--fixture-dir", str(fdir), "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: repeated problems (name, n) [('booth', 2)]\n"
    assert captured.out == "" and not out_csv.exists()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "0", "time_budget_seconds must be positive"),
    ("--budget", "-1.5", "time_budget_seconds must be positive"),
    ("--feval-cap", "0", "max_feval must be positive"),
    ("--feval-cap", "-3", "max_feval must be positive"),
])
def test_bench_rejects_non_positive_caps(capsys, tmp_path, flag, value, message):
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--suite", flag, value, "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out_csv.exists()


def test_bench_runs_only_what_its_flags_name(capsys, tmp_path, monkeypatch):
    # The package reads no environment: a fixture directory exported as
    # DFSANE_FIXTURE_DIR adds no problem to the run.
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    (fdir / "diag.txt").write_text(FIXTURE)
    monkeypatch.setenv("DFSANE_FIXTURE_DIR", str(fdir))
    out_csv = tmp_path / "bench.csv"
    code = dispatch(["bench", "--suite", "--solvers", "plain", "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    assert [(r.problem, r.solver) for r in dfsane.bench.read_records_csv(out_csv)] == \
        [(p.name, "plain") for p in suite_builtin()]


def test_bench_requires_some_problems(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = dispatch(["bench", "--solvers", "plain", "--out", str(tmp_path / "bench.csv")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: nothing to run (pass --suite and/or --fixture-dir)\n"
    assert os.listdir(tmp_path) == []


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
    out_csv = tmp_path / "x.csv"
    code = dispatch(["bench", "--suite", "--solvers", "warp-drive", "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: mode must be 'accelerated' or 'plain'\n"
    assert captured.out == "" and not out_csv.exists()


@pytest.mark.parametrize("solvers", ["accelerated,accelerated", "plain, accelerated,plain"])
def test_bench_rejects_repeated_solver(capsys, tmp_path, solvers):
    out_csv = tmp_path / "x.csv"
    code = dispatch(["bench", "--suite", "--solvers", solvers, "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: repeated solver modes")
    assert captured.out == "" and not out_csv.exists()


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


def test_profile_rejects_a_repeated_input(capsys, tmp_path):
    records_csv = tmp_path / "records.csv"
    dfsane.bench.write_records_csv(
        [dfsane.bench.BenchRecord("p1", 2, "m1", 0.0, 1, 1, 0.1, True)], records_csv)
    out_csv = tmp_path / "profile.csv"
    code = dispatch(["profile", "--inputs", str(records_csv), str(records_csv),
                     "--out-csv", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: repeated record: problem 'p1', n = 2, solver 'm1'\n"
    assert captured.out == "" and not out_csv.exists()


def test_profile_rejects_a_solved_value_other_than_true_or_false(capsys, tmp_path):
    records_csv = tmp_path / "records.csv"
    records_csv.write_text("problem,n,solver,normF,iter,feval,time,solved\n"
                           "p1,2,m1,0.0,1,1,0.1,true\n"
                           "p1,2,m2,0.0,1,1,0.1,yes\n")
    out_csv = tmp_path / "profile.csv"
    code = dispatch(["profile", "--inputs", str(records_csv), "--out-csv", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {records_csv}, line 3: solved is 'yes', not true or false\n"
    assert captured.out == "" and not out_csv.exists()


HEADER = "problem,n,solver,normF,iter,feval,time,solved\n"


@pytest.mark.parametrize("text, message", [
    (HEADER + "p1,two,m1,0.0,1,1,0.1,true\n", "{path}, line 2: n is 'two', not an integer"),
    (HEADER + "p1,2,m1,0.0,1,1,,true\n", "{path}, line 2: time is '', not a number"),
    (HEADER.replace(",solved", "") + "p1,2,m1,0.0,1,1,0.1\n",
     "{path}: header 'problem,n,solver,normF,iter,feval,time', "
     "not 'problem,n,solver,normF,iter,feval,time,solved'"),
    (HEADER, "no records in inputs"),
    (HEADER + "p1,2,m1,0.0,1,1,0.1,true,9,9\n", "{path}, line 2: 10 fields, the header has 8"),
    (HEADER.replace("\n", ",solved\n") + "p1,2,m1,0.0,1,1,0.1,true,false\n",
     "{path}: header 'problem,n,solver,normF,iter,feval,time,solved,solved', "
     "not 'problem,n,solver,normF,iter,feval,time,solved'"),
], ids=["bad-n", "empty-time", "no-solved-column", "header-only", "long-row",
        "repeated-column"])
def test_profile_rejects_a_malformed_input(capsys, tmp_path, text, message):
    records_csv = tmp_path / "records.csv"
    records_csv.write_text(text)
    out_csv = tmp_path / "profile.csv"
    code = dispatch(["profile", "--inputs", str(records_csv), "--out-csv", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message.format(path=records_csv)}\n"
    assert captured.out == "" and not out_csv.exists()


def test_list_prints_registry(capsys):
    code = dispatch(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "booth" in out and "expfun2" in out
    assert out.splitlines() == [f"{name} (default n = {make(name).n})"
                                for name in sorted(REGISTRY)]


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


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_that_stops_early_gets_no_traceback(unbuffered):
    # ``dfsane solve ... --iprint 2 | head -1``: about 200 kB of iteration
    # lines, more than a pipe and stdout's buffer hold, so the solve is
    # still printing when the reader closes the pipe.
    src = str(Path(dfsane.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "dfsane", "solve", "--problem",
                             "broyden-tri", "--n", "20", "--epsf", "1e-300", "--maxit",
                             "1000", "--iprint", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"Iter:  0")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
