"""Tests for the core types: counted evaluation, configuration, reports."""

import math
from dataclasses import fields
from time import perf_counter

import numpy as np
import pytest

from dfsane import linesearch, steps
from dfsane.core import (
    EPS_MACH,
    BreakdownError,
    BudgetExhausted,
    CountedEvaluator,
    Problem,
    SolverConfig,
    as_vector,
)
from dfsane.problems import expfun2


def identity_problem(n=2):
    return Problem("id", n, lambda x: x.copy(), np.zeros(n))


def test_eval_counted_identity():
    ev = CountedEvaluator(identity_problem())
    F, f = ev.evaluate(np.array([3.0, 4.0]))
    np.testing.assert_array_equal(F, [3.0, 4.0])
    assert f == 25.0
    assert ev.fcnt == 1


def test_eval_counted_at_root():
    p = Problem("shift", 2, lambda x: x - 1.0, np.zeros(2))
    ev = CountedEvaluator(p)
    F, f = ev.evaluate(np.array([1.0, 1.0]))
    np.testing.assert_array_equal(F, [0.0, 0.0])
    assert f == 0.0


def test_eval_counted_expfun2_start():
    # Reference merit value at the standard start point of the n=3 chain.
    p = expfun2(3)
    ev = CountedEvaluator(p)
    _, f = ev.evaluate(p.x0)
    assert abs(f - 0.02060606) <= 1e-7


def test_fcnt_increments_once_per_call():
    ev = CountedEvaluator(identity_problem())
    for k in range(1, 6):
        ev.evaluate(np.zeros(2))
        assert ev.fcnt == k


@pytest.mark.parametrize("bad", [
    [1.0, math.inf],
    [math.nan, 0.0],
    [-math.inf, 2.0],
])
def test_nonfinite_residual_maps_to_plus_inf(bad):
    p = Problem("bad", 2, lambda x: np.array(bad), np.zeros(2))
    ev = CountedEvaluator(p)
    _, f = ev.evaluate(np.zeros(2))
    assert f == math.inf and f > 0  # usable in comparisons, never NaN


def counting_problem(n=2):
    calls = []

    def residual(x):
        calls.append(x.copy())
        return x.copy()

    return Problem("counted", n, residual, np.zeros(n)), calls


def test_evaluate_at_cap_raises_without_calling_residual():
    p, calls = counting_problem()
    ev = CountedEvaluator(p, max_feval=3)
    for _ in range(3):
        ev.evaluate(np.ones(2))
    with pytest.raises(BudgetExhausted):
        ev.evaluate(np.ones(2))
    assert ev.fcnt == 3 and len(calls) == 3


def test_evaluate_past_deadline_raises_without_calling_residual():
    p, calls = counting_problem()
    ev = CountedEvaluator(p, deadline=perf_counter() + 3600.0)
    ev.evaluate(np.ones(2))
    ev.deadline = perf_counter() - 1.0
    with pytest.raises(BudgetExhausted):
        ev.evaluate(np.ones(2))
    assert ev.fcnt == 1 and len(calls) == 1


def test_raising_residual_becomes_breakdown_with_cause():
    err = ValueError("sensor died")

    def broken(x):
        raise err

    ev = CountedEvaluator(Problem("broken", 2, broken, np.zeros(2)))
    with pytest.raises(BreakdownError) as info:
        ev.evaluate(np.zeros(2))
    assert info.value.__cause__ is err
    assert ev.fcnt == 1


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1,), (2, 1)])
def test_wrong_shape_residual_becomes_breakdown(shape):
    ev = CountedEvaluator(Problem("shape", 2, lambda x: np.ones(shape), np.zeros(2)))
    with pytest.raises(BreakdownError) as info:
        ev.evaluate(np.zeros(2))
    assert isinstance(info.value.__cause__, ValueError)


def reference_evaluate(raw, n):
    """F and f as the evaluator computed them before its fast path: every
    result through as_vector, then a finiteness test per component."""
    F = as_vector(raw, n)
    return F, float(F @ F) if np.isfinite(F).all() else math.inf


@pytest.mark.parametrize("n, make", [
    (3, lambda: np.array([1.0, -2.0, 3.0])),                     # the fast path
    (3, lambda: [1.0, -2.0, 3.0]),                               # list
    (3, lambda: np.array([1.5, -2.25, 3.0], dtype=np.float32)),  # float32
    (3, lambda: np.array([1, -2, 3])),                           # int
    (3, lambda: np.arange(6.0)[::2]),                            # strided float64 view
    (3, lambda: np.arange(6.0)[::-2]),                           # reversed float64 view
    (1, lambda: np.array(2.5)),                                  # 0-d array
    (1, lambda: np.float64(-2.5)),                               # numpy scalar
    (2, lambda: np.array([1.0, math.inf])),
    (2, lambda: np.array([math.nan, 1.0])),
    (2, lambda: np.array([1e200, 1e200])),                       # F @ F overflows
])
def test_evaluate_agrees_with_the_as_vector_reference(n, make):
    ev = CountedEvaluator(Problem("r", n, lambda x: make(), np.zeros(n)))
    with np.errstate(over="ignore"):
        F, f = ev.evaluate(np.zeros(n))
        F_ref, f_ref = reference_evaluate(make(), n)
    assert type(F) is np.ndarray and F.dtype == np.float64 and F.shape == (n,)
    assert F.tobytes() == F_ref.tobytes()
    assert repr(f) == repr(f_ref)


def test_f_agrees_with_norm_squared():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        p = Problem("v", n, lambda x, v=v: v.copy(), np.zeros(n))
        _, f = CountedEvaluator(p).evaluate(np.zeros(n))
        expected = float(np.linalg.norm(v)) ** 2
        assert abs(f - expected) <= 4.0 * EPS_MACH * n * max(expected, 1e-300)


def test_as_vector_checks_shape():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], n=3)


def test_problem_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Problem("p", 0, lambda x: x, np.zeros(0))
    with pytest.raises(ValueError):
        Problem("p", 3, lambda x: x, np.zeros(2))


def test_config_defaults():
    assert [f.name for f in fields(SolverConfig)] == [
        "nhlim", "epsf", "maxit", "max_feval", "time_budget_seconds", "mode", "iprint"]
    cfg = SolverConfig()
    assert cfg.nhlim == 6 and cfg.p == 5
    assert cfg.epsf is None and cfg.maxit is None
    assert cfg.max_feval is None and cfg.time_budget_seconds is None
    assert cfg.mode == "accelerated" and cfg.iprint == -1
    # The method's fixed constants live next to the functions that read them.
    assert linesearch.GAMMA == 1e-4
    assert linesearch.TAU_MIN == 0.1 and linesearch.TAU_MAX == 0.5
    assert linesearch.M == 10
    assert steps.SIGMA_MIN == math.sqrt(EPS_MACH)
    assert steps.SIGMA_MAX == 1.0 / math.sqrt(EPS_MACH)


@pytest.mark.parametrize("kwargs", [
    {"gamma": 0.0},
    {"gamma": 1.0},
    {"sigma_min": 2.0, "sigma_max": 1.0},
    {"sigma_min": 0.0},
    {"tau_min": 0.5, "tau_max": 0.1},
    {"tau_max": 1.0},
    {"M": 0},
    {"nhlim": 1},
    {"epsf": -1e-6},
    {"maxit": -1},
    {"max_feval": 0},
    {"time_budget_seconds": 0.0},
    {"mode": "fast"},
    {"iprint": 3},
])
def test_config_rejects_invalid(kwargs):
    # The fixed constants are no fields, so naming one is a TypeError; a bad
    # value of a field is a ValueError.
    known = {f.name for f in fields(SolverConfig)}
    with pytest.raises(ValueError if set(kwargs) <= known else TypeError):
        SolverConfig(**kwargs)


def test_report_json_dict_is_stable_keyed():
    from dfsane.core import SolveReport
    rep = SolveReport(x=np.array([1.0]), res=np.array([0.0]), normF=0.0,
                      iter=3, fcnt=7, istop=0, reason="converged",
                      wall_seconds=0.01)
    d = rep.to_json_dict()
    assert list(d) == ["x", "res", "normF", "iter", "fcnt", "istop", "reason",
                       "wall_seconds"]
    assert d["iter"] == 3 and d["fcnt"] == 7 and d["istop"] == 0
    assert d["reason"] == "converged"
