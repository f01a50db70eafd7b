"""Property tests of the solve contract under an evaluation cap.

For any cap, on problems that converge, stall or have no root, in both
modes: the cap is never exceeded and a budget stop uses it up exactly, the
trace holds one record per completed iteration, every accepted line-search
step passes the nonmonotone test, the report's residual is F at the
reported point bit for bit with normF its squared norm, and a rerun
repeats the trace exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
