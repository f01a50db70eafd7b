"""Property tests of the solve contract under an evaluation cap.

For any cap, on problems that converge, stall or have no root, in both
modes: the cap is never exceeded and a budget stop uses it up exactly, the
trace holds one record per completed iteration, every accepted line-search
step passes the nonmonotone test, the report's residual is F at the
reported point bit for bit with normF its squared norm, and a rerun
repeats the trace exactly.  Under an iteration or an evaluation cap, every
stop reports the best iterate: normF is the smallest merit value of the
start point and the completed iterates.  So does a breakdown on a
residual that raises at its K-th call and a time-budget stop after K
evaluations, each after exactly K evaluations and with the trace of the
uninterrupted run up to that point.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dfsane.core
from dfsane.core import Problem, SolverConfig
from dfsane.linesearch import armijo_ok
from dfsane.problems import discrete_bvp, powell_singular, rosenbrock_ext
from dfsane.solver import solve

PROBLEMS = {
    "rosenbrock-ext": rosenbrock_ext(),
    "powell-singular": powell_singular(),
    "bvp-50": discrete_bvp(50),
    "no-real-root": Problem("no-real-root", 2, lambda x: x * x + 1.0, np.zeros(2)),
}


def traced_solve(problem, cfg):
    trace = []
    return solve(problem, cfg, trace=trace), trace


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PROBLEMS)),
       mode=st.sampled_from(["accelerated", "plain"]),
       max_feval=st.integers(min_value=1, max_value=3000))
def test_solve_contract_under_evaluation_cap(name, mode, max_feval):
    problem = PROBLEMS[name]
    cfg = SolverConfig(mode=mode, max_feval=max_feval)
    rep, trace = traced_solve(problem, cfg)

    assert rep.fcnt <= max_feval
    if rep.istop == 2:
        assert rep.fcnt == max_feval
    assert len(trace) == rep.iter
    for rec in trace:
        assert armijo_ok(rec.f_trial, rec.fbar, rec.eta, rec.alpha, rec.f_current)
    assert np.array_equal(problem.residual(rep.x), rep.res)
    assert rep.normF == float(rep.res @ rep.res)

    again, trace_again = traced_solve(problem, cfg)
    assert trace_again == trace
    assert (again.iter, again.fcnt, again.istop, again.normF) == \
        (rep.iter, rep.fcnt, rep.istop, rep.normF)
    assert np.array_equal(again.x, rep.x)


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PROBLEMS)),
       mode=st.sampled_from(["accelerated", "plain"]),
       cap=st.sampled_from(["maxit", "max_feval"]),
       limit=st.integers(min_value=1, max_value=3000))
def test_every_stop_reports_the_best_iterate(name, mode, cap, limit):
    problem = PROBLEMS[name]
    rep, trace = traced_solve(problem, SolverConfig(mode=mode, **{cap: limit}))
    assert_reports_best_iterate(problem, rep, trace, start_evaluated=True)


def assert_reports_best_iterate(problem, rep, trace, start_evaluated):
    """normF is the smallest merit value of x0 and the completed iterates,
    and res is F at x; inf and NaN at x0 when no evaluation completed."""
    if not start_evaluated:
        assert rep.iter == 0 and np.array_equal(rep.x, problem.x0)
        assert np.isnan(rep.res).all() and rep.normF == math.inf
        return
    F0 = problem.residual(problem.x0)
    assert rep.normF == min([float(F0 @ F0)] + [rec.f_next for rec in trace])
    assert np.array_equal(problem.residual(rep.x), rep.res)


def failing_at_call(problem, k):
    """``problem`` with a residual that raises ValueError on its k-th call."""
    calls = 0

    def residual(x):
        nonlocal calls
        calls += 1
        if calls == k:
            raise ValueError("sensor died")
        return problem.residual(x)

    return replace(problem, residual=residual)


def clock_jumping_after(reads):
    """A perf_counter before any deadline for ``reads`` reads, then past it."""
    count = 0

    def clock():
        nonlocal count
        count += 1
        return -math.inf if count <= reads else math.inf

    return clock


CAPPED = 3000


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PROBLEMS)),
       mode=st.sampled_from(["accelerated", "plain"]),
       data=st.data())
def test_breakdown_on_the_kth_call_reports_the_best_iterate(name, mode, data):
    problem = PROBLEMS[name]
    cfg = SolverConfig(mode=mode, max_feval=CAPPED)
    full, full_trace = traced_solve(problem, cfg)
    k = data.draw(st.integers(min_value=1, max_value=full.fcnt), label="k")

    failing = failing_at_call(problem, k)
    rep, trace = traced_solve(failing, cfg)

    assert rep.istop == 3 and rep.fcnt == k
    assert rep.reason.endswith("(ValueError)")
    assert trace == full_trace[:rep.iter]
    assert_reports_best_iterate(problem, rep, trace, start_evaluated=k > 1)


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PROBLEMS)),
       mode=st.sampled_from(["accelerated", "plain"]),
       data=st.data())
def test_time_budget_stop_reports_the_best_iterate(name, mode, data):
    problem = PROBLEMS[name]
    cfg = SolverConfig(mode=mode, max_feval=CAPPED, time_budget_seconds=3600.0)
    full, full_trace = traced_solve(problem, cfg)
    k = data.draw(st.integers(min_value=0, max_value=full.fcnt - 1), label="k")

    with mock.patch.object(dfsane.core, "perf_counter", clock_jumping_after(k)):
        rep, trace = traced_solve(problem, cfg)

    assert rep.istop == 2 and rep.fcnt == k
    assert rep.reason == "time budget exhausted"
    assert trace == full_trace[:rep.iter]
    assert_reports_best_iterate(problem, rep, trace, start_evaluated=k > 0)
