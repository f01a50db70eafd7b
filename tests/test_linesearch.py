"""Tests for the nonmonotone double-backtracking line search."""

import math

import numpy as np
import pytest

from dfsane.core import EPS_MACH, BreakdownError, CountedEvaluator, Problem
from dfsane.linesearch import (
    GAMMA,
    TAU_MAX,
    TAU_MIN,
    FWindow,
    armijo_ok,
    double_backtracking,
    quad_new_alpha,
)


# ---------------------------------------------------------------------------
# merit window
# ---------------------------------------------------------------------------

def test_barfk_is_max():
    w = FWindow(10)
    for v in (1.0, 5.0, 3.0):
        w.push(v)
    assert w.barfk() == 5.0


def test_barfk_singleton():
    w = FWindow(10)
    w.push(7.0)
    assert w.barfk() == 7.0


def test_window_evicts_oldest():
    w = FWindow(10)
    for v in range(1, 13):
        w.push(float(v))
    assert len(w) == 10
    assert w.barfk() == 12.0
    # Refilled in descending order, the window drops its largest (oldest)
    # value with each further push, so barfk walks down the stored values.
    for v in range(12, 0, -1):
        w.push(float(v))
    maxima = []
    for _ in range(10):
        w.push(-1.0)
        maxima.append(w.barfk())
    assert maxima == [float(v) for v in range(9, 0, -1)] + [-1.0]


def test_barfk_empty_rejected():
    with pytest.raises(ValueError):
        FWindow(3).barfk()


# ---------------------------------------------------------------------------
# acceptance test
# ---------------------------------------------------------------------------

def test_armijo_accepts_below_bound():
    assert armijo_ok(0.9, 1.0, 0.5, 1.0, 1.0)


def test_armijo_rejects_infinite_merit():
    assert not armijo_ok(math.inf, 1.0, 0.5, 1.0, 1.0)
    assert not armijo_ok(math.nan, 1.0, 0.5, 1.0, 1.0)


def test_armijo_bound_is_exact():
    bound = 1.0 + 0.5 - GAMMA * 1.0 * 1.0  # 1.4999
    assert not armijo_ok(1.4999001, 1.0, 0.5, 1.0, 1.0)
    assert armijo_ok(bound, 1.0, 0.5, 1.0, 1.0)  # <= is inclusive


# ---------------------------------------------------------------------------
# quadratic interpolation cut
# ---------------------------------------------------------------------------

def test_quad_cut_plain_value():
    assert quad_new_alpha(1.0, 1.0, 3.0) == 0.25  # 1 / (3 + 1)


def test_quad_cut_clips_low():
    assert quad_new_alpha(1.0, 1.0, 1e6) == 0.1


def test_quad_cut_clips_high():
    # raw = 1 / 1.2 = 0.8333... exceeds TAU_MAX.
    assert quad_new_alpha(1.0, 1.0, 0.2) == 0.5


def test_quad_cut_nonpositive_denominator():
    # denom = 0 + (0.8 - 1) * 1 < 0 -> mildest cut.
    assert quad_new_alpha(0.4, 1.0, 0.0) == pytest.approx(0.2)


def test_quad_cut_infinite_probe():
    assert quad_new_alpha(1.0, 1.0, math.inf) == 0.5


def test_quad_cut_stays_in_safeguard_interval():
    rng = np.random.default_rng(5)
    for _ in range(500):
        alpha = float(rng.uniform(1e-12, 1.0))
        f_k = float(10.0 ** rng.uniform(-12, 6))
        f_probe = float(10.0 ** rng.uniform(-12, 12))
        if rng.random() < 0.1:
            f_probe = math.inf
        out = quad_new_alpha(alpha, f_k, f_probe)
        assert TAU_MIN * alpha <= out <= TAU_MAX * alpha + 1e-18
        assert out < alpha  # strictly shrinking


def min_max_quad_new_alpha(alpha, f_k, f_probe):
    """The cut with its clip as max(lo, min(raw, hi))."""
    hi = TAU_MAX * alpha
    denom = f_probe + (2.0 * alpha - 1.0) * f_k
    if not math.isfinite(denom) or denom <= 0.0:
        return hi
    raw = alpha * alpha * f_k / denom
    if not math.isfinite(raw):
        return hi
    return max(TAU_MIN * alpha, min(raw, hi))


def test_quad_cut_is_bitwise_the_min_max_form():
    # Special values (signed zeros, infinities, NaN, subnormal and huge
    # magnitudes) mixed with ordinary ones, in every argument.
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan,
                5e-324, 1e-300, 1e300, -1e300]
    for _ in range(20_000):
        args = [specials[rng.integers(len(specials))] if rng.random() < 0.3
                else float(rng.uniform(-2.0, 5.0) * 10.0 ** rng.integers(-20, 20))
                for _ in range(3)]
        got, want = quad_new_alpha(*args), min_max_quad_new_alpha(*args)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), args


# ---------------------------------------------------------------------------
# double backtracking
# ---------------------------------------------------------------------------

def scalar_problem(fn):
    return Problem("scalar", 1, fn, np.zeros(1))


def test_first_probe_hits_root():
    p = scalar_problem(lambda x: x.copy())
    ev = CountedEvaluator(p)
    x = np.array([1.0])
    F, f = ev.evaluate(x)
    sigma = 1.0
    out = double_backtracking(ev, x, F, f, sigma, 1.0, 0.5)
    assert out.alpha == 1.0
    assert out.evals == 1
    assert out.direction == "-"
    assert np.array_equal(out.x_trial, x + out.alpha * (-sigma * F))
    np.testing.assert_array_equal(out.x_trial, [0.0])
    assert out.f_trial == 0.0


def test_second_probe_accepts_reverse_direction():
    p = scalar_problem(lambda x: -x)
    ev = CountedEvaluator(p)
    x = np.array([1.0])
    F, f = ev.evaluate(x)
    assert f == 1.0
    sigma = 1.0
    out = double_backtracking(ev, x, F, f, sigma, 1.0, 0.5)
    # forward probe x = 2 has f = 4 > 1.4999; reverse probe x = 0 is a root.
    assert out.alpha == 1.0
    assert out.evals == 2
    assert out.direction == "+"
    assert np.array_equal(out.x_trial, x + out.alpha * (sigma * F))  # d = +sigma F = -1
    np.testing.assert_array_equal(out.x_trial, [0.0])


def test_first_accept_shape():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        p = Problem("lin", n, lambda x, A=A: A @ x, rng.standard_normal(n))
        ev = CountedEvaluator(p)
        x = rng.standard_normal(n)
        F, f = ev.evaluate(x)
        if f == 0.0:
            continue
        sigma = 0.5
        out = double_backtracking(ev, x, F, f, sigma, f, 10.0 * f + 1.0)
        if out.evals == 1:
            np.testing.assert_allclose(out.x_trial, x - sigma * out.alpha * F)
        d = {"-": -sigma * F, "+": sigma * F}[out.direction]
        assert np.array_equal(out.x_trial, x + out.alpha * d)


def test_outcome_always_satisfies_acceptance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        p = Problem("lin", n, lambda x, A=A, b=b: A @ x - b, np.zeros(n))
        ev = CountedEvaluator(p)
        x = rng.standard_normal(n)
        F, f = ev.evaluate(x)
        if f == 0.0:
            continue
        sigma = float(rng.uniform(0.05, 1.0)) * (1 if rng.random() < 0.5 else -1)
        fbar = f * float(rng.uniform(1.0, 2.0))
        eta = float(rng.uniform(1e-8, 0.5))
        before = ev.fcnt
        out = double_backtracking(ev, x, F, f, sigma, fbar, eta)
        assert armijo_ok(out.f_trial, fbar, eta, out.alpha, f)
        assert out.evals == ev.fcnt - before
        assert 0.0 < out.alpha <= 1.0


def test_step_cuts_are_monotone_and_bounded():
    # Residual is flat and large except in a tiny well around the origin, so
    # several rounds of cuts run before acceptance; the probe points recorded
    # by the evaluator let the alpha sequence be reconstructed exactly.
    points = []

    def fn(x):
        points.append(float(x[0]))
        return np.array([3.0]) if abs(x[0]) > 1e-7 else np.array([1e-3])

    p = scalar_problem(fn)
    ev = CountedEvaluator(p)
    x = np.zeros(1)
    F, f_k = ev.evaluate(x)
    assert f_k == 1e-6
    points.clear()
    out = double_backtracking(ev, x, F, f_k, 1.0, f_k, 1e-9)
    probe_alphas = np.abs(np.array(points)) / 1e-3
    plus = probe_alphas[0::2]   # forward-direction probes
    minus = probe_alphas[1::2]
    for seq in (plus, minus):
        for old, new in zip(seq, seq[1:]):
            assert new <= old
            assert TAU_MIN * old - 1e-15 <= new <= TAU_MAX * old + 1e-15
    assert out.evals == len(points)
    assert out.alpha == plus[-1]


def test_underflow_raises_breakdown():
    # Discontinuous residual: finite only at the start point, so no probe is
    # ever accepted and both step sizes shrink to below machine epsilon.
    def fn(x):
        return np.array([1.0]) if x[0] == 0.0 else np.array([math.inf])

    p = scalar_problem(fn)
    ev = CountedEvaluator(p)
    x = np.zeros(1)
    F, f = ev.evaluate(x)
    with pytest.raises(BreakdownError):
        double_backtracking(ev, x, F, f, 1.0, f, 0.5)
    # TAU_MAX = 0.5 halves both steps each round until they pass eps_mach
    rounds = math.ceil(-math.log2(EPS_MACH)) + 1
    assert ev.fcnt - 1 == 2 * rounds
