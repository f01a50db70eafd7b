"""Tests for the benchmark harness and performance profiles."""

import math
from dataclasses import replace
from xml.dom import minidom

import numpy as np
import pytest

from dfsane.bench import (
    BenchRecord,
    ProfileCurve,
    perf_profile,
    read_records_csv,
    records_to_matrix,
    profile_svg,
    run_suite,
    write_profile,
    write_records_csv,
)
from dfsane.core import Problem, SolverConfig
from dfsane.problems import booth, expfun2, powell_singular
from dfsane.solver import solve

BOTH = {
    "accelerated": SolverConfig(mode="accelerated"),
    "plain": SolverConfig(mode="plain"),
}


def unsolvable():
    return Problem("norealroot", 2, lambda x: x * x + 1.0, np.zeros(2))


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------

def test_one_record_per_pair():
    configs = {name: replace(cfg, time_budget_seconds=5.0)
               for name, cfg in BOTH.items()}
    records = run_suite([booth()], configs)
    assert len(records) == 2
    assert [r.solver for r in records] == ["accelerated", "plain"]
    assert all(r.problem == "booth" and r.n == 2 for r in records)


def test_booth_record_solved():
    cfg = {"accelerated": SolverConfig(time_budget_seconds=5.0)}
    (rec,) = run_suite([booth()], cfg)
    assert rec.solved
    assert rec.iter <= 10
    assert rec.normF_final <= 1e-6 * math.sqrt(2)


def test_unsolvable_respects_budget():
    cfg = {"accelerated": SolverConfig(max_feval=100_000, time_budget_seconds=1.0)}
    (rec,) = run_suite([unsolvable()], cfg)
    assert not rec.solved
    assert rec.time_seconds <= 2.0  # budget plus scheduling grace
    # merit is bounded below by construction: each component is >= 1
    assert rec.normF_final >= math.sqrt(2.0) - 1e-9


@pytest.mark.parametrize("problems, configs", [([], BOTH), ([booth()], {})],
                         ids=["no-problems", "no-configs"])
def test_run_suite_needs_a_problem_and_a_config(problems, configs):
    with pytest.raises(ValueError, match="at least one problem and one solver"):
        run_suite(problems, configs)


def test_run_suite_rejects_a_repeated_problem_before_any_solve(monkeypatch):
    monkeypatch.setattr("dfsane.bench.solve", lambda *a, **k: pytest.fail("a solve ran"))
    problems = [booth(), expfun2(5), booth(), expfun2(6), expfun2(5)]
    with pytest.raises(ValueError) as info:
        run_suite(problems, {"plain": SolverConfig(mode="plain")})
    assert str(info.value) == "repeated problems (name, n) [('booth', 2), ('expfun2', 5)]"


def test_crashing_solve_yields_unsolved_record():
    def boom(x):
        raise MemoryError("synthetic")

    p = Problem("boom", 1, boom, np.zeros(1))
    (rec,) = run_suite([p], {"accelerated": SolverConfig()})
    assert not rec.solved
    assert rec.normF_final == math.inf or math.isinf(rec.normF_final)
    # The failing evaluation is a breakdown of the solve, with its own counts.
    assert (rec.iter, rec.feval) == (0, 1)


def test_feval_matches_report():
    import dfsane.solver as solver_mod

    (rec,) = run_suite([booth()], {"accelerated": SolverConfig()})
    rep = solver_mod.solve(booth(), SolverConfig(epsf=1e-6 * math.sqrt(2)))
    assert rec.feval == rep.fcnt


@pytest.mark.parametrize("problem, cfg, istop", [
    (booth(), SolverConfig(), 0),
    (powell_singular(), SolverConfig(mode="plain", max_feval=50), 2),
    (expfun2(3), SolverConfig(maxit=1), 1),
    (Problem("broken", 2, lambda x: 1 / 0, np.zeros(2)), SolverConfig(), 3),
], ids=["converged", "evaluation-cap", "iteration-cap", "breakdown"])
def test_solved_agrees_with_the_solvers_stop(problem, cfg, istop):
    # run_suite decides ``solved`` by ||F|| <= epsf itself, and the solver
    # decides istop 0 by the same test: the two must agree on every stop.
    (rec,) = run_suite([problem], {"m": cfg})
    rep = solve(problem, replace(cfg, epsf=1e-6 * math.sqrt(problem.n)))
    assert (rep.istop, rep.fcnt) == (istop, rec.feval)
    assert rec.solved == (rep.istop == 0)


# ---------------------------------------------------------------------------
# performance profiles
# ---------------------------------------------------------------------------

def test_profile_two_methods_crossed():
    curves = perf_profile([[1.0, 2.0], [2.0, 1.0]])
    g1, g2 = curves
    assert g1.value_at(1.0) == 0.5
    assert g1.value_at(2.0) == 1.0
    assert g2.value_at(1.0) == 0.5
    assert g2.value_at(2.0) == 1.0
    np.testing.assert_array_equal(g1.taus, [1.0, 2.0])


def test_profile_unsolved_caps_curve():
    curves = perf_profile([[1.0, math.inf], [1.0, 1.0]])
    g1, g2 = curves
    assert g1.value_at(1.0) == 0.5
    assert g1.value_at(1e9) == 0.5   # never reaches 1: one problem unsolved
    assert g2.value_at(1.0) == 1.0


def test_profile_restriction_drops_unsolved_columns():
    curves = perf_profile([[1.0, math.inf], [1.0, 1.0]],
                          restrict_to_solved_by_all=True)
    for c in curves:
        assert c.value_at(1.0) == 1.0


def test_profile_restriction_can_empty_out():
    with pytest.raises(ValueError):
        perf_profile([[math.inf, 1.0], [2.0, math.inf]],
                     restrict_to_solved_by_all=True)


def test_profile_rejects_bad_costs():
    with pytest.raises(ValueError):
        perf_profile([[0.0, 1.0]])
    with pytest.raises(ValueError):
        perf_profile([[-1.0]])


@pytest.mark.parametrize("t, methods, message", [
    ([1.0, 2.0], None, "nonempty 2-D"),
    ([[[1.0]]], None, "nonempty 2-D"),
    ([[1.0, 2.0], [2.0, 1.0]], ["m1"], "one method name per matrix row"),
    ([[1.0, 2.0]], ["m1", "m2"], "one method name per matrix row"),
])
def test_profile_rejects_bad_shapes(t, methods, message):
    with pytest.raises(ValueError, match=message):
        perf_profile(t, methods=methods)


def test_profile_monotone_and_in_range_random():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        nm = int(rng.integers(2, 5))
        npb = int(rng.integers(1, 9))
        t = 10.0 ** rng.uniform(-2, 3, size=(nm, npb))
        mask = rng.random((nm, npb)) < 0.25
        t[mask] = math.inf
        curves = perf_profile(t)
        for i, c in enumerate(curves):
            assert np.all(np.diff(c.gammas) >= 0)
            assert np.all((c.gammas >= 0) & (c.gammas <= 1.0))
            solved_fraction = np.isfinite(t[i]).sum() / npb
            if c.taus.size:
                assert c.gammas[-1] == pytest.approx(solved_fraction)


def test_ties_count_for_every_minimizer():
    curves = perf_profile([[3.0, 5.0], [3.0, 7.0]])
    assert curves[0].value_at(1.0) == 1.0
    assert curves[1].value_at(1.0) == 0.5


# ---------------------------------------------------------------------------
# matrices from records
# ---------------------------------------------------------------------------

def records_fixture():
    mk = lambda solver, prob, feval, t, solved: BenchRecord(
        problem=prob, n=2, solver=solver, normF_final=0.0, iter=1,
        feval=feval, time_seconds=t, solved=solved)
    return [
        mk("m1", "p1", 1, 0.001, True),
        mk("m1", "p2", 2, 0.5, True),
        mk("m2", "p1", 2, 0.02, True),
        mk("m2", "p2", 1, 0.25, True),
    ]


def test_records_to_matrix_feval():
    methods, keys, t = records_to_matrix(records_fixture(), "feval")
    assert methods == ["m1", "m2"]
    np.testing.assert_array_equal(t, [[1.0, 2.0], [2.0, 1.0]])


def test_records_to_matrix_rejects_an_unknown_metric():
    with pytest.raises(ValueError, match="metric must be 'feval' or 'time'"):
        records_to_matrix(records_fixture(), "iter")


def test_records_to_matrix_applies_time_floor():
    _, _, t = records_to_matrix(records_fixture(), "time")
    assert t[0, 0] == 0.01  # floored from 1 ms
    assert t[1, 0] == 0.02


def test_records_to_matrix_unsolved_is_inf():
    recs = records_fixture()
    recs[1] = BenchRecord(problem="p2", n=2, solver="m1", normF_final=9.9,
                          iter=1, feval=2, time_seconds=0.5, solved=False)
    _, _, t = records_to_matrix(recs, "feval")
    assert math.isinf(t[0, 1])


@pytest.mark.parametrize("fevals", [(10, 50), (50, 10)])
def test_records_to_matrix_rejects_a_repeated_record(fevals):
    recs = records_fixture()
    for feval in fevals:
        recs.append(BenchRecord(problem="p3", n=4, solver="m2", normF_final=0.0,
                                iter=1, feval=feval, time_seconds=0.1, solved=True))
    with pytest.raises(ValueError, match="problem 'p3', n = 4, solver 'm2'"):
        records_to_matrix(recs, "feval")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

HEADER = "problem,n,solver,normF,iter,feval,time,solved"


def test_records_csv_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    records = records_fixture()
    write_records_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "problem,n,solver,normF,iter,feval,time,solved"
    assert len(lines) == 5
    back = read_records_csv(path)
    assert back == records


def test_records_csv_roundtrip_of_numpy_scalars(tmp_path):
    # A norm from np.linalg.norm is an np.float64, whose repr under NumPy 2
    # is 'np.float64(0.5)': the file holds its float's repr instead.
    path = tmp_path / "records.csv"
    record = BenchRecord(problem="p", n=np.int64(4), solver="m", normF_final=np.float64(0.5),
                         iter=np.int64(3), feval=np.int64(7), time_seconds=np.float64(0.25),
                         solved=np.bool_(True))
    write_records_csv([record], path)
    assert path.read_text().splitlines()[1] == "p,4,m,0.5,3,7,0.25,true"
    assert read_records_csv(path) == [record]


@pytest.mark.parametrize("field, solved", [(" TRUE ", True), ("False", False), ("yes", None),
                                           ("1", None), ("", None), (None, None)])
def test_read_records_csv_reads_solved_as_true_or_false_only(tmp_path, field, solved):
    # field None: a short row, with no solved field at all
    path = tmp_path / "records.csv"
    write_records_csv(records_fixture(), path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ("" if field is None else "," + field)
    path.write_text("\n".join(lines) + "\n")
    if field is None:
        with pytest.raises(ValueError, match="line 3: 7 fields, the header has 8"):
            read_records_csv(path)
    elif solved is None:
        with pytest.raises(ValueError, match=f"line 3: solved is {field!r}, not true or false"):
            read_records_csv(path)
    else:
        assert read_records_csv(path)[1].solved is solved


@pytest.mark.parametrize("column, field, kind", [
    ("n", "two", "an integer"), ("n", "2.0", "an integer"), ("normF", "small", "a number"),
    ("iter", "", "an integer"), ("feval", "1e3", "an integer"), ("time", "", "a number"),
    ("time", None, "a number"), ("solver", None, "text"),
])
def test_read_records_csv_names_the_line_and_column_of_a_bad_field(tmp_path, column,
                                                                   field, kind):
    # field None: a short row that ends before the column, so it has i fields
    path = tmp_path / "records.csv"
    write_records_csv(records_fixture(), path)
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(column)
    values = lines[2].split(",")
    lines[2] = ",".join(values[:i] if field is None else values[:i] + [field] + values[i + 1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    if field is None:
        assert str(info.value) == f"{path}, line 3: {i} fields, the header has 8"
    else:
        assert str(info.value) == f"{path}, line 3: {column} is {field!r}, not {kind}"


@pytest.mark.parametrize("column", ["problem", "solved", "time"])
def test_read_records_csv_names_a_missing_column(tmp_path, column):
    path = tmp_path / "records.csv"
    write_records_csv(records_fixture(), path)
    text = path.read_text().replace(column, "renamed", 1)
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    header = HEADER.replace(column, "renamed", 1)
    assert str(info.value) == f"{path}: header {header!r}, not {HEADER!r}"


@pytest.mark.parametrize("extra", [1, 3])
def test_read_records_csv_rejects_a_row_longer_than_the_header(tmp_path, extra):
    path = tmp_path / "records.csv"
    write_records_csv(records_fixture(), path)
    lines = path.read_text().splitlines()
    lines[3] += ",x" * extra
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    assert str(info.value) == f"{path}, line 4: {8 + extra} fields, the header has 8"


@pytest.mark.parametrize("columns", [",solved", ",problem", ",note,note"],
                         ids=["solved", "problem", "unknown-column"])
def test_read_records_csv_rejects_a_repeated_column(tmp_path, columns):
    # every row has a field for each column: only the header is wrong
    path = tmp_path / "records.csv"
    path.write_text(HEADER + columns + "\n"
                    "p1,2,m1,0.0,1,1,0.1,true" + ",x" * columns.count(",") + "\n")
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    assert str(info.value) == f"{path}: header {HEADER + columns!r}, not {HEADER!r}"


@pytest.mark.parametrize("header, row", [
    (HEADER + ",note", "p1,2,m1,0.0,1,1,0.1,true,first run"),
    ("n,problem" + HEADER[9:], "2,p1,m1,0.0,1,1,0.1,true"),
], ids=["extra-column", "reordered-columns"])
def test_read_records_csv_accepts_only_the_written_header(tmp_path, header, row):
    # a header that write_records_csv never writes, with rows that fit it
    path = tmp_path / "records.csv"
    path.write_text(header + "\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    assert str(info.value) == f"{path}: header {header!r}, not {HEADER!r}"


def test_read_records_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "records.csv"
    records = records_fixture()
    write_records_csv(records, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [""] + lines[2:] + ["", ""]) + "\n")
    assert read_records_csv(path) == records


def test_writers_reject_nothing_to_write(tmp_path):
    with pytest.raises(ValueError, match="no records to write"):
        write_records_csv([], tmp_path / "records.csv")
    with pytest.raises(ValueError, match="no curves to write"):
        write_profile([], tmp_path / "profile.csv")
    assert list(tmp_path.iterdir()) == []


def test_profile_csv_contents_and_roundtrip(tmp_path):
    curves = perf_profile([[1.0, 2.0], [2.0, 1.0]], methods=["m1", "m2"])
    csv_path = tmp_path / "profile.csv"
    svg_path = tmp_path / "profile.svg"
    write_profile(curves, csv_path, svg_path)

    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "method,tau,gamma"
    assert "m1,1.0,0.5" in rows
    assert "m1,2.0,1.0" in rows
    # Every curve point, in order, with repr floats that read back exactly.
    assert rows[1:] == [f"{c.method},{float(tau)!r},{float(gamma)!r}"
                        for c in curves for tau, gamma in zip(c.taus, c.gammas)]

    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 2
    assert "m1" in svg and "m2" in svg


def test_curve_without_breakpoints_is_drawn_flat_at_zero(tmp_path):
    # A method that solves no problem has no breakpoints: its curve runs
    # along the bottom edge of the plot frame, from tau = 1 to the right edge.
    csv_path, svg_path = tmp_path / "profile.csv", tmp_path / "profile.svg"
    write_profile([ProfileCurve("m", np.array([]), np.array([]))], csv_path, svg_path)
    assert csv_path.read_text().splitlines() == ["method,tau,gamma"]
    doc = minidom.parse(str(svg_path))
    frame = doc.getElementsByTagName("rect")[1]
    left = int(frame.getAttribute("x"))
    bottom = int(frame.getAttribute("y")) + int(frame.getAttribute("height"))
    right = left + int(frame.getAttribute("width"))
    [path] = doc.getElementsByTagName("path")
    assert path.getAttribute("d") == f"M {left} {bottom:.2f} H {right}"


def test_svg_handles_wide_tau_range():
    curves = perf_profile([[1.0, 1.0], [1500.0, 1.0]], methods=["a", "b"])
    svg = profile_svg(curves)
    assert "1e4" in svg or "1e3" in svg  # log decade labels present


def test_svg_escapes_method_names():
    names = ["R&D <fast>", "plain"]
    curves = perf_profile([[1.0, 2.0], [2.0, 1.0]], methods=names)
    doc = minidom.parseString(profile_svg(curves))
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert labels[-2:] == names
