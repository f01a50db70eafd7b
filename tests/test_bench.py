"""Tests for the benchmark harness and performance profiles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dfsane.bench import (
    BenchRecord,
    perf_profile,
    read_records_csv,
    records_to_matrix,
    profile_svg,
    run_suite,
    write_profile,
    write_records_csv,
)
from dfsane.core import Problem, SolverConfig
from dfsane.problems import booth

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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_records_csv_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    records = records_fixture()
    write_records_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "problem,n,solver,normF,iter,feval,time,solved"
    assert len(lines) == 5
    back = read_records_csv(path)
    assert back == records


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


def test_svg_handles_wide_tau_range():
    curves = perf_profile([[1.0, 1.0], [1500.0, 1.0]], methods=["a", "b"])
    svg = profile_svg(curves)
    assert "1e4" in svg or "1e3" in svg  # log decade labels present
