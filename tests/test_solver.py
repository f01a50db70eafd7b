"""Tests for the top-level solver loop, stop codes, and counting."""

import math
import time
import warnings

import numpy as np
import pytest

import dfsane.solver as solver_mod
from dfsane.core import Problem, SolverConfig
from dfsane.linesearch import armijo_ok
from dfsane.problems import booth, broyden_tridiagonal, expfun2, rosenbrock_ext
from dfsane.solver import solve


def test_start_at_root_stops_immediately():
    c = np.array([2.0, -1.0])
    p = Problem("shift", 2, lambda x: x - c, np.zeros(2))
    rep = solve(p, SolverConfig(), x_start=c)
    assert rep.istop == 0
    assert rep.iter == 0
    assert rep.fcnt == 1
    assert rep.normF == 0.0


def test_maxit_zero_caps_at_once():
    p = Problem("id", 1, lambda x: x + 1.0, np.zeros(1))
    rep = solve(p, SolverConfig(mode="plain", maxit=0))
    assert rep.istop == 1
    assert rep.fcnt == 1 and rep.iter == 0


def test_expfun2_golden_run():
    p = expfun2(3)
    trace = []
    rep = solve(p, SolverConfig(epsf=1e-6 * math.sqrt(3)), trace=trace)
    assert rep.istop == 0
    assert rep.iter <= 10
    assert rep.fcnt <= 30
    assert rep.normF <= 1e-12
    # first merit value matches the reference listing
    assert abs(trace[0].f_current - 0.02060606) <= 1e-7
    # merit values decrease sharply on this problem
    assert trace[-1].f_next < 1e-10 * trace[0].f_current


def test_booth_golden_run():
    rep = solve(booth(), SolverConfig())
    assert rep.istop == 0
    assert rep.iter <= 10
    assert rep.normF <= 1e-20
    np.testing.assert_allclose(rep.x, [1.0, 3.0], atol=1e-8)


def test_plain_mode_solves_expfun2():
    p = expfun2(3)
    cfg = SolverConfig(mode="plain", epsf=1e-6 * math.sqrt(3), maxit=10_000)
    rep = solve(p, cfg)
    assert rep.istop == 0
    # regression record: plain needed 29 iterations vs 5 accelerated when
    # this suite was frozen; only convergence itself is asserted.


def test_accelerated_rosenbrock_solves_every_perturbed_start():
    # Start s is x0 + 1e-13 * max(|x0|, 1) * u with u ~ U(-1, 1) drawn from
    # default_rng(s): a start set on which the kernel's round-off, not the
    # problem, decides whether a run converges.
    p = rosenbrock_ext(10)
    cfg = SolverConfig(max_feval=100_000, epsf=1e-6 * math.sqrt(p.n))
    unsolved = []
    for s in range(1, 17):
        u = np.random.default_rng(s).uniform(-1.0, 1.0, p.n)
        rep = solve(p, cfg, x_start=p.x0 + 1e-13 * np.maximum(np.abs(p.x0), 1.0) * u)
        if rep.istop != 0:
            unsolved.append((s, rep.istop, rep.fcnt))
    assert unsolved == []


def test_accepted_point_never_worse_than_trial():
    for problem in (booth(), expfun2(3), broyden_tridiagonal(10)):
        trace = []
        rep = solve(problem, SolverConfig(), trace=trace)
        assert rep.istop == 0
        for rec in trace:
            assert rec.f_next <= rec.f_trial
            if rec.accepted == "accel":
                assert rec.f_accel < rec.f_trial
            assert rec.f_next <= rec.fbar + rec.eta  # nonmonotone bound


def test_feval_accounting_matches_trace():
    for mode in ("accelerated", "plain"):
        trace = []
        cfg = SolverConfig(mode=mode, maxit=50)
        rep = solve(broyden_tridiagonal(10), cfg, trace=trace)
        per_iter_accel = 1 if mode == "accelerated" else 0
        expected = 1 + sum(r.ls_evals + per_iter_accel for r in trace)
        assert rep.fcnt == expected
        assert rep.iter == len(trace)


def test_istop_zero_iff_converged():
    cfg = SolverConfig()
    rep = solve(booth(), cfg)
    assert rep.istop == 0
    assert math.sqrt(rep.normF) <= 1e-6 * math.sqrt(2)

    capped = solve(broyden_tridiagonal(20), SolverConfig(maxit=2))
    assert capped.istop == 1
    assert math.sqrt(capped.normF) > 1e-6 * math.sqrt(20)


def test_deterministic_reports():
    p = expfun2(7)
    a = solve(p, SolverConfig())
    b = solve(p, SolverConfig())
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.res, b.res)
    assert (a.normF, a.iter, a.fcnt, a.istop) == (b.normF, b.iter, b.fcnt, b.istop)


def test_time_budget_stops_unsolvable_problem():
    def stubborn(x):
        time.sleep(0.005)
        return x * x + 1.0  # no real root

    p = Problem("stubborn", 2, stubborn, np.zeros(2))
    rep = solve(p, SolverConfig(time_budget_seconds=0.1))
    assert rep.istop == 2
    assert rep.wall_seconds < 2.0


def test_feval_budget_stops_unsolvable_problem():
    p = Problem("norett", 2, lambda x: x * x + 1.0, np.zeros(2))
    rep = solve(p, SolverConfig(max_feval=50))
    assert rep.istop == 2
    assert rep.fcnt == 50


def test_breakdown_reports_best_iterate():
    def spiky(x):
        return np.array([1.0]) if x[0] == 0.0 else np.array([math.inf])

    p = Problem("spiky", 1, spiky, np.zeros(1))
    rep = solve(p, SolverConfig())
    assert rep.istop == 3
    np.testing.assert_array_equal(rep.x, [0.0])
    assert rep.normF == 1.0


def test_failing_evaluator_maps_to_breakdown():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 1:
            raise ValueError("sensor died")
        return x - 5.0

    p = Problem("flaky", 2, flaky, np.zeros(2))
    rep = solve(p, SolverConfig())
    assert rep.istop == 3
    np.testing.assert_array_equal(rep.x, [0.0, 0.0])
    assert rep.reason == "residual failed: sensor died (ValueError)"


@pytest.mark.parametrize("residual, cfg, istop, fcnt", [
    (lambda x: 1 / 0, SolverConfig(), 3, 1),
    (lambda x: x.copy(), SolverConfig(time_budget_seconds=1e-9), 2, 0),
])
def test_stop_before_first_evaluation_completes(residual, cfg, istop, fcnt):
    p = Problem("stillborn", 3, residual, np.ones(3))
    rep = solve(p, cfg)
    assert (rep.istop, rep.iter, rep.fcnt) == (istop, 0, fcnt)
    np.testing.assert_array_equal(rep.x, p.x0)
    assert rep.res.shape == (3,) and np.isnan(rep.res).all()
    assert rep.normF == math.inf


def test_failure_outside_the_residual_propagates(monkeypatch):
    def broken_kernel(*args, **kwargs):
        raise ZeroDivisionError("kernel bug")

    monkeypatch.setattr(solver_mod, "accel_point", broken_kernel)
    with pytest.raises(ZeroDivisionError):
        solve(booth(), SolverConfig(mode="accelerated"))


def test_armijo_holds_post_hoc_on_converged_runs():
    cfg = SolverConfig()
    for problem in (booth(), expfun2(5), broyden_tridiagonal(10)):
        trace = []
        rep = solve(problem, cfg, trace=trace)
        assert rep.istop == 0
        for rec in trace:
            assert armijo_ok(rec.f_trial, rec.fbar, rec.eta, rec.alpha, rec.f_current)


def test_iprint_trace_format(capsys):
    rep = solve(booth(), SolverConfig(iprint=0))
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("Iter:")]
    assert len(lines) == rep.iter + 1
    first = float(lines[0].split("=")[1])
    assert first == 74.0
    assert "success!" in out


def test_iprint_levels_add_detail(capsys):
    for iprint, tags in ((0, ()), (1, ("ls:",)), (2, ("ls:", "accel:"))):
        trace = []
        solve(expfun2(3), SolverConfig(iprint=iprint, maxit=3), trace=trace)
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


def test_record_carries_direction_and_acceleration_info():
    for mode in ("accelerated", "plain"):
        trace = []
        solve(broyden_tridiagonal(10), SolverConfig(mode=mode), trace=trace)
        assert trace
        for rec in trace:
            assert rec.direction in ("-", "+")
            if mode == "plain":
                assert rec.rank is None and rec.nu_norm is None
            else:
                assert 1 <= rec.rank <= min(rec.k, SolverConfig().p) + 1
                assert rec.nu_norm >= 0.0


def test_non_finite_start_is_breakdown_after_one_evaluation():
    for value in (np.array([math.inf, 1.0]), np.full(2, math.nan)):
        p = Problem("dead", 2, lambda x, v=value: v.copy(), np.zeros(2))
        for mode in ("accelerated", "plain"):
            rep = solve(p, SolverConfig(mode=mode))
            assert rep.istop == 3
            assert rep.fcnt == 1 and rep.iter == 0


@pytest.mark.parametrize("residual, cfg, istop, reason", [
    (lambda x: x - 1.0, SolverConfig(), 0, "converged"),
    (lambda x: x + 1.0, SolverConfig(maxit=0), 1, "iteration cap reached"),
    (lambda x: x * x + 1.0, SolverConfig(max_feval=20), 2, "evaluation cap reached"),
    (lambda x: x * x + 1.0, SolverConfig(time_budget_seconds=1e-9), 2,
     "time budget exhausted"),
    (lambda x: np.full(2, math.nan), SolverConfig(), 3,
     "merit value at the start point is not finite"),
    (lambda x: np.ones(3), SolverConfig(), 3,
     "residual failed: expected a vector of length 2, got 3 (ValueError)"),
    (lambda x: np.ones(2) if not x.any() else np.full(2, math.inf), SolverConfig(),
     3, "line search step underflow after 106 evaluations"),
])
def test_report_names_its_stop(residual, cfg, istop, reason):
    rep = solve(Problem("stop", 2, residual, np.zeros(2)), cfg)
    assert (rep.istop, rep.reason) == (istop, reason)


def noisy_shift(x):
    """F(x) = x - 1, computed through an overflow and a division by zero."""
    overflowed = x * 1e308 * 10.0          # +-inf wherever |x| > 0.18
    divided = 1.0 / (x - x)                # inf everywhere
    return x - 1.0 + 0.0 * np.tanh(overflowed) + np.minimum(divided, 0.0)


@pytest.mark.parametrize("residual, cfg, istop", [
    (noisy_shift, SolverConfig(), 0),
    (noisy_shift, SolverConfig(max_feval=2), 2),
    (lambda x: 1.0 / (x - x), SolverConfig(), 3),   # non-finite start
    (lambda x: x * 1e200, SolverConfig(), 3),        # finite F, F @ F overflows
])
def test_solve_raises_no_floating_point_warning(residual, cfg, istop):
    p = Problem("noisy", 2, residual, np.array([2.0, 3.0]))
    with pytest.warns(RuntimeWarning):
        F = residual(p.x0)
        F @ F  # the last case warns here, not in the residual
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        rep = solve(p, cfg)
        assert np.geterr() == before
    assert rep.istop == istop
    if istop == 0:
        np.testing.assert_allclose(rep.x, [1.0, 1.0])
