"""Tests for the top-level solver loop, stop codes, and counting."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dfsane.accel as accel_mod
import dfsane.solver as solver_mod
import dfsane.steps as steps_mod
from dfsane.core import BLOCK_ROWS, Problem, SolverConfig
from dfsane.linesearch import armijo_ok
from dfsane.problems import (
    booth,
    broyden_tridiagonal,
    expfun2,
    make,
    rosenbrock_ext,
    trigexp,
)
from dfsane.solver import solve


def test_start_at_root_stops_immediately():
    c = np.array([2.0, -1.0])
    p = Problem("shift", 2, lambda x: x - c, np.zeros(2))
    rep = solve(replace(p, x0=c), SolverConfig())
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
        rep = solve(replace(p, x0=p.x0 + 1e-13 * np.maximum(np.abs(p.x0), 1.0) * u), cfg)
        if rep.istop != 0:
            unsolved.append((s, rep.istop, rep.fcnt))
    assert unsolved == []


def perturbed_start(x0, seed):
    """The 1% perturbed start of perfbench's seeds above 0: each component
    of x0 moved by 0.01 u relative (additive where it is 0), u ~ U(-1, 1)
    drawn from default_rng(seed)."""
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, x0.shape[0])
    return np.where(x0 == 0.0, 0.01 * u, x0 * (1.0 + 0.01 * u))


@pytest.mark.parametrize("name", ["broyden-tri", "trigexp"])
def test_blocked_kernel_keeps_the_direct_lstsq_iterates(name, monkeypatch):
    # n = 50,000 is above accel.BLOCK_ROWS, so the shipped window keeps
    # per-block QR factors of Y; the golden traces (n <= 10,000) never reach
    # them.  The reference run raises BLOCK_ROWS to keep the direct layout.
    # From the registered constant start many appends are dependent within a
    # block; from the 1% perturbed starts (each component of x0 moved by
    # 0.01 u relative, additive where it is 0) none are.
    p = make(name, 50_000)
    cfg = SolverConfig(epsf=1e-6 * math.sqrt(p.n))
    assert p.n > accel_mod.BLOCK_ROWS
    starts = [p.x0, perturbed_start(p.x0, 1), perturbed_start(p.x0, 2)]

    def run():
        runs = []
        for x0 in starts:
            trace = []
            runs.append((solve(replace(p, x0=x0), cfg, trace=trace), trace))
        return runs

    blocked = run()
    monkeypatch.setattr(accel_mod, "BLOCK_ROWS", p.n)
    for (rep, trace), (ref, ref_trace) in zip(blocked, run()):
        assert (rep.iter, rep.fcnt, rep.istop) == (ref.iter, ref.fcnt, ref.istop)
        assert [r.accepted for r in trace] == [r.accepted for r in ref_trace]
        assert [r.rank for r in trace] == [r.rank for r in ref_trace]
        assert any(r.accepted == "accel" for r in ref_trace)
        np.testing.assert_allclose([r.f_next for r in trace],
                                   [r.f_next for r in ref_trace], rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("name", ["broyden-tri", "trigexp"])
def test_blocked_secant_pair_keeps_the_plain_iterates(name, monkeypatch):
    # Above steps.BLOCK_ROWS plain mode sums (s'y, s's) block by block; the
    # reference run raises BLOCK_ROWS to n, one block, the whole-vector dots.
    p = make(name, 50_000)
    cfg = SolverConfig(mode="plain", epsf=1e-6 * math.sqrt(p.n))
    assert p.n > steps_mod.BLOCK_ROWS

    def run():
        trace = []
        rep = solve(p, cfg, trace=trace)
        return rep, trace

    blocked, blocked_trace = run()
    monkeypatch.setattr(steps_mod, "BLOCK_ROWS", p.n)
    ref, ref_trace = run()
    assert (blocked.iter, blocked.fcnt, blocked.istop) == (ref.iter, ref.fcnt, ref.istop)
    assert [r.accepted for r in blocked_trace] == [r.accepted for r in ref_trace]
    assert [r.direction for r in blocked_trace] == [r.direction for r in ref_trace]
    np.testing.assert_allclose([r.f_next for r in blocked_trace],
                               [r.f_next for r in ref_trace], rtol=1e-7, atol=0.0)


def peak_vectors(fn, n):
    """tracemalloc peak of fn() above the memory traced before it, in
    float64 n-vectors."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * n)


@pytest.mark.parametrize("factory", [trigexp, broyden_tridiagonal],
                         ids=["trigexp", "broyden-tri"])
def test_blocked_residual_call_holds_one_vector(factory):
    # F, the one n-vector a call returns, and at most two block-sized scratch
    # vectors; whole-vector passes held 3 (trigexp) and 2 (broyden-tri).
    n = 100_000
    residual = factory(n).residual
    x = np.random.default_rng(0).standard_normal(n)
    assert peak_vectors(lambda: residual(x), n) <= 1.05 + 2 * BLOCK_ROWS / n


# Per-solve peaks at n = 1e5 (the window alone holds 2 p + 1 = 11 vectors);
# the earlier loop, which subtracted each secant pair into temporaries and
# kept the previous iterate, peaked at 22.3, 24, 10 and 12.  Accelerated mode
# peaked at 18.18 and 18.34 while the extrapolated point had an n-vector of
# its own, not the window's spare row, and at 17.18 and 17.34 while the trial
# x was held through its evaluation and the rejected probes' F through the
# line search.  Plain mode peaked at 8.17 and 8.00 while it formed s and y
# whole and kept -sigma F through each line search, and broyden-tri at 7.17
# while a rejected probe's F outlived it.  Accelerated mode also runs from
# perfbench's perturbed start (seed 1).  It peaked at 16.88 and 16.87 while S
# had a row for the trial step and the factored pass rotated Q through m
# block rows of scratch.
@pytest.mark.parametrize("name, mode, vectors", [
    ("broyden-tri", "accelerated", 15.39),
    ("trigexp", "accelerated", 15.38),
    ("broyden-tri", "plain", 6.33),
    ("trigexp", "plain", 6.33),
])
def test_large_solve_peak_memory(name, mode, vectors):
    n = 100_000
    p = make(name, n)
    cfg = SolverConfig(mode=mode)
    starts = [p.x0] + ([perturbed_start(p.x0, 1)] if mode == "accelerated" else [])
    for x0 in starts:
        assert peak_vectors(lambda: solve(replace(p, x0=x0), cfg), n) <= vectors + 0.05


@pytest.mark.parametrize("name, vectors", [("broyden-tri", 15.03), ("trigexp", 15.04)])
def test_accelerated_peak_memory_at_n_1e6(name, vectors):
    # perfbench's large-n accelerated solve from the seed-1 start: the
    # window's 11 rows, x, F, one candidate and its F, and a little block
    # scratch (16.09 and 16.10 while S had a row for the trial step).
    n = 1_000_000
    p = make(name, n)
    x0 = perturbed_start(p.x0, 1)
    assert peak_vectors(lambda: solve(replace(p, x0=x0), SolverConfig()), n) <= vectors + 0.05


@pytest.mark.parametrize("name, n", [("rosenbrock-ext", 10), ("powell-singular", 4),
                                     ("trigexp", 50), ("trigexp", BLOCK_ROWS + 3)])
def test_a_winning_trial_point_is_the_one_the_line_search_returned(name, n, monkeypatch):
    # The solver drops the trial x through the extrapolated point's
    # evaluation and rebuilds it when it wins; the next search starts from
    # the rebuilt point, which must be the line search's, byte for byte.
    line_search, calls = solver_mod.double_backtracking, []

    def recorded(ev, x, *args):
        step = line_search(ev, x, *args)
        calls.append((x.tobytes(), step[1].tobytes()))
        return step

    monkeypatch.setattr(solver_mod, "double_backtracking", recorded)
    trace = []
    solve(make(name, n), SolverConfig(max_feval=2_000), trace=trace)
    wins = [k for k, rec in enumerate(trace[:-1]) if rec.accepted == "trial"]
    assert wins
    for k in wins:
        assert calls[k + 1][0] == calls[k][1]


@pytest.mark.parametrize("mode", ["accelerated", "plain"])
@pytest.mark.parametrize("n", [50, 2 * BLOCK_ROWS + 123])
@pytest.mark.parametrize("name", ["broyden-tri", "trigexp"])
def test_spectral_step_reads_the_secant_pair_of_consecutive_iterates(name, n, mode,
                                                                      monkeypatch):
    # Both modes take (s'y, s's) from steps.secant_pair of the last two
    # iterates and their residuals, so above BLOCK_ROWS they sum it in the
    # same block order.
    spectral_step, calls = solver_mod.sigma_k, []

    def recorded(pair, x, f):
        calls.append((pair, x.copy()))
        return spectral_step(pair, x, f)

    monkeypatch.setattr(solver_mod, "sigma_k", recorded)
    p = make(name, n)
    solve(p, SolverConfig(mode=mode))
    assert len(calls) > 2 and calls[0][0] is None
    for (_, x0), (pair, x1) in zip(calls, calls[1:]):
        want = steps_mod.secant_pair(x1, x0, p.residual(x1), p.residual(x0))
        assert [v.hex() for v in pair] == [v.hex() for v in want]


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


@pytest.mark.parametrize("mode", ["accelerated", "plain"])
@pytest.mark.parametrize("problem, maxit, istop", [
    (booth(), None, 0),
    (expfun2(3), 3, 1),
    (replace(expfun2(3), x0=np.full(3, 1000.0)), None, 3),
    (Problem("broken", 2, lambda x: 1 / 0, np.zeros(2)), None, 3),
], ids=["converged", "maxit", "non-finite-start", "raising-residual"])
def test_solve_writes_nothing(capsys, mode, problem, maxit, istop):
    # Progress reaches the caller through ``trace`` alone.
    cfg = SolverConfig(maxit=maxit, mode=mode)
    for trace in (None, []):
        assert solve(problem, cfg, trace=trace).istop == istop
    assert capsys.readouterr() == ("", "")


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
