"""Tests for the nonmonotone double-backtracking line search."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import dfsane.solver as solver_mod
from dfsane.core import EPS_MACH, BreakdownError, CountedEvaluator, Problem, SolverConfig
from dfsane.linesearch import (
    GAMMA,
    TAU_MAX,
    TAU_MIN,
    armijo_ok,
    double_backtracking,
    probe_point,
    quad_new_alpha,
)
from dfsane.problems import suite_builtin
from dfsane.solver import solve


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
    before = ev.fcnt
    t, x_trial, F_trial, f_trial = double_backtracking(ev, x, F, f, sigma, 1.0, 0.5)
    alpha = abs(t)
    assert alpha == 1.0
    assert ev.fcnt - before == 1
    assert t > 0  # along -sigma F
    assert np.array_equal(x_trial, x + alpha * (-sigma * F))
    np.testing.assert_array_equal(x_trial, [0.0])
    assert f_trial == 0.0


def test_second_probe_accepts_reverse_direction():
    p = scalar_problem(lambda x: -x)
    ev = CountedEvaluator(p)
    x = np.array([1.0])
    F, f = ev.evaluate(x)
    assert f == 1.0
    sigma = 1.0
    before = ev.fcnt
    t, x_trial, F_trial, f_trial = double_backtracking(ev, x, F, f, sigma, 1.0, 0.5)
    alpha = abs(t)
    # forward probe x = 2 has f = 4 > 1.4999; reverse probe x = 0 is a root.
    assert alpha == 1.0
    assert ev.fcnt - before == 2
    assert t < 0  # along +sigma F
    assert np.array_equal(x_trial, x + alpha * (sigma * F))  # d = +sigma F = -1
    np.testing.assert_array_equal(x_trial, [0.0])


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
        before = ev.fcnt
        t, x_trial, F_trial, f_trial = (
            double_backtracking(ev, x, F, f, sigma, f, 10.0 * f + 1.0))
        alpha = abs(t)
        if ev.fcnt - before == 1:
            np.testing.assert_allclose(x_trial, x - sigma * alpha * F)
        d = -sigma * F if t > 0 else sigma * F
        assert np.array_equal(x_trial, x + alpha * d)


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
        t, x_trial, F_trial, f_trial = double_backtracking(ev, x, F, f, sigma, fbar, eta)
        alpha = abs(t)
        assert armijo_ok(f_trial, fbar, eta, alpha, f)
        # Probes alternate -sigma F, +sigma F: the count's parity is t's sign.
        assert (ev.fcnt - before) % 2 == (1 if t > 0 else 0)
        assert np.array_equal(x_trial, probe_point(x, F, sigma, t))
        assert 0.0 < alpha <= 1.0


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
    before = ev.fcnt
    t, x_trial, F_trial, f_trial = double_backtracking(ev, x, F, f_k, 1.0, f_k, 1e-9)
    alpha = abs(t)
    probe_alphas = np.abs(np.array(points)) / 1e-3
    plus = probe_alphas[0::2]   # forward-direction probes
    minus = probe_alphas[1::2]
    for seq in (plus, minus):
        for old, new in zip(seq, seq[1:]):
            assert new <= old
            assert TAU_MIN * old - 1e-15 <= new <= TAU_MAX * old + 1e-15
    assert ev.fcnt - before == len(points)
    assert alpha == plus[-1]


def test_underflow_raises_breakdown():
    # Discontinuous residual: finite only at the start point, so no probe is
    # ever accepted and both step sizes shrink to below machine epsilon.
    def fn(x):
        return np.array([1.0]) if x[0] == 0.0 else np.array([math.inf])

    p = scalar_problem(fn)
    ev = CountedEvaluator(p)
    x = np.zeros(1)
    F, f = ev.evaluate(x)
    with pytest.raises(BreakdownError) as info:
        double_backtracking(ev, x, F, f, 1.0, f, 0.5)
    # TAU_MAX = 0.5 halves both steps each round until they pass eps_mach
    rounds = math.ceil(-math.log2(EPS_MACH)) + 1
    assert ev.fcnt - 1 == 2 * rounds
    assert str(info.value) == f"line search step underflow after {ev.fcnt - 1} evaluations"


# ---------------------------------------------------------------------------
# reverse probe
# ---------------------------------------------------------------------------

def special_vector(rng, n):
    """Random values mixed with zeros of both signs, subnormals and
    infinities."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                         math.inf, -math.inf])
    pick = rng.random(n) < 0.3
    v[pick] = rng.choice(specials, int(pick.sum()))
    return v


@pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
def test_reverse_probe_is_bitwise_the_subtraction(n):
    # probe_point writes the +sigma F probe x - alpha d as x + (-alpha) d,
    # and the held-d reference as (-alpha) d + x: both are the subtraction,
    # since negation is exact and addition commutes.
    rng = np.random.default_rng(n)
    alphas = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1e300, math.inf,
              *rng.random(5), *10.0 ** rng.uniform(-300, 300, 5)]
    signed_rng = np.random.default_rng([n, 1])   # F and sigma for probe_point
    sigmas = [1.0, -1.0, math.sqrt(EPS_MACH), 1.0 / math.sqrt(EPS_MACH),
              *signed_rng.uniform(-1.0, 1.0, 3)]
    for alpha in alphas:
        d, x = special_vector(rng, n), special_vector(rng, n)
        F, sigma = special_vector(signed_rng, n), sigmas[signed_rng.integers(len(sigmas))]
        with np.errstate(all="ignore"):   # as in solve: 0 * inf and inf - inf
            probe, want = (-alpha) * d + x, x - alpha * d
            signed = probe_point(x, F, sigma, -alpha)
            product_first, subtraction = (-alpha) * (-sigma * F) + x, x - alpha * (-sigma * F)
        assert probe.tobytes() == want.tobytes(), alpha
        assert signed.tobytes() == product_first.tobytes(), (alpha, sigma)
        assert signed.tobytes() == subtraction.tobytes(), (alpha, sigma)


def test_reverse_probe_allocates_one_vector():
    # numpy reuses each product's temporary for the next operation, so a
    # probe allocates only its result (x - alpha * d would allocate the
    # product and then the result).  The first form holds d; the two after
    # it form d = -sigma F inside, as probe_point does for either sign of t.
    n = 100_000
    rng = np.random.default_rng(0)
    F, x = rng.standard_normal(n), rng.standard_normal(n)
    alpha, sigma = 0.5, 0.7
    d = -sigma * F
    for probe_of in (lambda: (-alpha) * d + x,
                     lambda: x + alpha * (-sigma * F),
                     lambda: (-alpha) * (-sigma * F) + x,
                     lambda: probe_point(x, F, sigma, alpha),
                     lambda: probe_point(x, F, sigma, -alpha)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            probe = probe_of()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probe.shape == (n,)
        assert (peak - base) / (8 * n) <= 1.05


def kept_direction_backtracking(ev, x, F, f_k, sigma, fbar, eta_k):
    """double_backtracking as written when it held d = -sigma F through the
    search, the reference for the probes formed afresh."""
    d = -sigma * F
    alpha_plus = alpha_minus = 1.0
    evals = 0
    while True:
        x_probe = x + alpha_plus * d
        F_probe, f_probe = ev.evaluate(x_probe)
        evals += 1
        if armijo_ok(f_probe, fbar, eta_k, alpha_plus, f_k):
            return alpha_plus, x_probe, F_probe, f_probe
        f_minus_dir = f_probe
        x_probe = (-alpha_minus) * d + x
        F_probe, f_probe = ev.evaluate(x_probe)
        evals += 1
        if armijo_ok(f_probe, fbar, eta_k, alpha_minus, f_k):
            return -alpha_minus, x_probe, F_probe, f_probe
        alpha_plus = quad_new_alpha(alpha_plus, f_k, f_minus_dir)
        alpha_minus = quad_new_alpha(alpha_minus, f_k, f_probe)
        if alpha_plus < EPS_MACH and alpha_minus < EPS_MACH:
            raise BreakdownError(f"line search step underflow after {evals} evaluations")


def desk_suite_bytes():
    """Every desk-suite report and trace record in both modes, floats as
    their bytes."""
    out = []
    for p in suite_builtin():
        for mode in ("accelerated", "plain"):
            trace = []
            rep = solve(p, SolverConfig(mode=mode, max_feval=100_000), trace=trace)
            out.append((rep.x.tobytes(), rep.res.tobytes(),
                        np.float64(rep.normF).tobytes(), rep.iter, rep.fcnt, rep.istop,
                        rep.reason))
            out.extend(tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                             for v in astuple(rec)) for rec in trace)
    return out


def test_probes_match_a_kept_direction_bit_for_bit(monkeypatch):
    # Forming -sigma F inside each probe instead of holding d through the
    # search keeps every desk-suite probe, and so every iterate, bit for bit.
    fresh = desk_suite_bytes()
    monkeypatch.setattr(solver_mod, "double_backtracking", kept_direction_backtracking)
    assert desk_suite_bytes() == fresh


class ScriptedEvaluator:
    """Stands in for CountedEvaluator: each call counts itself in ``fcnt``
    and returns a copy of x as F and the next merit value of ``merits``."""

    def __init__(self, merits):
        self.merits = iter(merits)
        self.fcnt = 0

    def evaluate(self, x):
        self.fcnt += 1
        return x.copy(), next(self.merits)


@pytest.mark.parametrize("n", [7, 100_000])
@pytest.mark.parametrize("direction", ["-", "+"])
def test_rebuilt_trial_point_is_the_accepted_probe(direction, n):
    # The solver drops the trial x through the extrapolated point's
    # evaluation and, when the trial point wins, rebuilds it with
    # probe_point from (x, F, sigma, t).  Rejected rounds cut
    # alpha by half (f = inf), by a tenth (f = 1e300) or by a random
    # quadratic step, so alpha runs over 1, powers of 2 and 10 and random
    # values; sigma takes the bounds of steps.sigma_k and random values of
    # both signs, and x and F hold zeros of both signs, subnormals and
    # infinities.
    rng = np.random.default_rng(n)
    x, F = special_vector(rng, n), special_vector(rng, n)
    sigmas = [1.0, -1.0, math.sqrt(EPS_MACH), -math.sqrt(EPS_MACH), 1.0 / math.sqrt(EPS_MACH),
              *rng.uniform(-1.0, 1.0, 3), *10.0 ** rng.uniform(-8, 8, 3)]
    for sigma in sigmas:
        for rounds in (0, 1, 4):
            merits = [float(rng.choice([math.inf, 1e300, rng.uniform(2.0, 100.0)]))
                      for _ in range(2 * rounds)]
            merits += [0.0] if direction == "-" else [math.inf, 0.0]
            ev = ScriptedEvaluator(merits)
            with np.errstate(all="ignore"):   # as in solve: 0 * inf and inf - inf
                t, x_trial, _, _ = double_backtracking(ev, x, F, 1.0, sigma, 1.0, 0.5)
                rebuilt = probe_point(x, F, sigma, t)
            got = "-" if t > 0 else "+"
            assert (got, ev.fcnt) == (direction, len(merits))
            assert rebuilt.tobytes() == x_trial.tobytes(), (sigma, t)


def scripted_merits(rng, rounds, direction):
    """Rejected merits (inf halves a step, 1e300 cuts it to a tenth, a
    uniform draw takes a quadratic cut) for ``rounds`` rounds, then 0.0
    accepted along ``direction``; without a direction, enough rejections
    for both steps to underflow."""
    draws = 2 * rounds + (direction == "+") if direction else 2 * 60
    merits = [float(rng.choice([math.inf, 1e300, rng.uniform(2.0, 100.0)]))
              for _ in range(draws)]
    return merits + [0.0] if direction else merits


@pytest.mark.parametrize("direction", ["-", "+", None])
def test_round_loop_matches_the_two_half_reference(direction):
    # The round loop over t = +alpha, -alpha probes, accepts and cuts as the
    # reference written out in two halves: the same t bits, trial point,
    # evaluation count and underflow message, on scripted rejections that
    # the desk suite does not reach.
    rng = np.random.default_rng(ord(direction or "0"))
    x, F = rng.standard_normal(5), rng.standard_normal(5)
    for rounds in (*range(7), *rng.integers(0, 7, 10)):
        merits, sigma = scripted_merits(rng, rounds, direction), float(rng.uniform(-2.0, 2.0))
        outcomes = []
        for search in (double_backtracking, kept_direction_backtracking):
            ev = ScriptedEvaluator(merits)
            try:
                t, x_trial, _, f_trial = search(ev, x, F, 1.0, sigma, 1.0, 0.5)
                outcomes.append((np.float64(t).tobytes(), x_trial.tobytes(), f_trial,
                                 ev.fcnt, t > 0))
            except BreakdownError as err:
                outcomes.append((str(err), ev.fcnt))
        assert outcomes[0] == outcomes[1], (rounds, merits)
        if direction:
            assert outcomes[0][3:] == (len(merits), direction == "-")
        else:
            assert outcomes[0][0].startswith("line search step underflow after ")
