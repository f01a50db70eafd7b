"""Core types: problems, solver configuration, counted evaluation, reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

Array = np.ndarray
Residual = Callable[[Array], Array]

EPS_MACH = float(np.finfo(np.float64).eps)

ISTOP_CONVERGED = 0
ISTOP_MAXIT = 1
ISTOP_BUDGET = 2
ISTOP_BREAKDOWN = 3


class BreakdownError(RuntimeError):
    """The line search cannot take a representable step any more, or the
    residual failed."""


class BudgetExhausted(RuntimeError):
    """The evaluation cap or the time budget is spent."""


def as_vector(x, n: int | None = None) -> Array:
    """Coerce ``x`` to a 1-D float64 array, optionally checking its length."""
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class Problem:
    """A square nonlinear system F(x) = 0 together with a start point.

    ``residual`` maps a length-``n`` vector to a length-``n`` vector and must
    be a pure function of its argument.
    """

    name: str
    n: int
    residual: Residual
    x0: Array

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("problem dimension must be a positive integer")
        object.__setattr__(self, "x0", as_vector(self.x0, self.n))


@dataclass(frozen=True)
class SolverConfig:
    """The settable solver parameters.

    The method's fixed constants are not settings: GAMMA, TAU_MIN, TAU_MAX
    and the nonmonotone memory M live in ``linesearch``, SIGMA_MIN and
    SIGMA_MAX in ``steps``.
    ``nhlim`` equals p + 1 where p is the secant-window capacity in pairs.
    ``epsf`` is the convergence tolerance on ||F||_2; when left as None the
    solver uses 1e-6 * sqrt(n).  ``maxit`` / ``max_feval`` /
    ``time_budget_seconds`` are optional caps (absent means unbounded).
    The last two are hard caps, checked before every residual evaluation
    (line-search probes included).  Every stop, caps included, reports the
    best iterate seen.
    ``iprint`` controls console output, printed by ``solve`` from the
    per-iteration ``IterationRecord``: -1 silent, 0 one ``Iter:`` line per
    iterate, 1 adds one ``ls:`` line per iteration (accepted direction,
    step, evaluations), 2 adds one ``accel:`` line (columns, rank, ||nu||,
    extrapolated merit value, accepted point).
    """

    nhlim: int = 6
    epsf: float | None = None
    maxit: int | None = None
    max_feval: int | None = None
    time_budget_seconds: float | None = None
    mode: str = "accelerated"
    iprint: int = -1

    def __post_init__(self):
        if self.nhlim < 2:
            raise ValueError("nhlim must be at least 2")
        if self.epsf is not None and not self.epsf > 0.0:
            raise ValueError("epsf must be positive")
        if self.maxit is not None and self.maxit < 0:
            raise ValueError("maxit must be nonnegative")
        if self.max_feval is not None and self.max_feval < 1:
            raise ValueError("max_feval must be positive")
        if self.time_budget_seconds is not None and not self.time_budget_seconds > 0.0:
            raise ValueError("time_budget_seconds must be positive")
        if self.mode not in ("accelerated", "plain"):
            raise ValueError("mode must be 'accelerated' or 'plain'")
        if self.iprint not in (-1, 0, 1, 2):
            raise ValueError("iprint must be one of -1, 0, 1, 2")

    @property
    def p(self) -> int:
        """Secant-window capacity in (s, y) pairs."""
        return self.nhlim - 1


class CountedEvaluator:
    """Wraps a problem's residual, counts every evaluation and enforces the caps.

    ``evaluate`` returns both F(x) and the merit value f = ||F(x)||_2^2.  A
    residual that returns a float64 ndarray of shape (n,) is used as it is;
    anything else goes through ``as_vector``.  Finiteness is tested on the
    scalar f = F @ F alone: a non-finite component makes it inf or NaN, and
    any non-finite f maps to +inf so that downstream comparisons reject the
    point without special cases.  It raises BudgetExhausted, without
    evaluating, once ``max_feval`` evaluations are made or ``perf_counter()``
    is past ``deadline``.  A residual that raises or returns a wrong shape
    raises BreakdownError chained to its error.  Floating-point warnings are
    the caller's to silence (``solve`` runs under ``np.errstate``).
    """

    def __init__(self, problem: Problem, max_feval: int | None = None,
                 deadline: float | None = None):
        self.problem = problem
        self.max_feval = max_feval
        self.deadline = deadline
        self.fcnt = 0

    def evaluate(self, x: Array) -> tuple[Array, float]:
        if self.fcnt == self.max_feval:
            raise BudgetExhausted("evaluation cap reached")
        if self.deadline is not None and perf_counter() > self.deadline:
            raise BudgetExhausted("time budget exhausted")
        self.fcnt += 1
        problem = self.problem
        try:
            F = problem.residual(x)
            if type(F) is not np.ndarray or F.dtype != np.float64 or F.shape != (problem.n,):
                F = as_vector(F, problem.n)
        except Exception as exc:
            raise BreakdownError(f"residual failed: {exc}") from exc
        f = float(F @ F)
        if not math.isfinite(f):
            f = math.inf
        return F, f


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Terminal state of one solve.

    ``normF`` is f(x) = ||F(x)||_2^2 at the final iterate (the squared
    residual norm).  ``istop``: 0 converged, 1 iteration cap, 2 budget
    exhausted, 3 numerical breakdown.  ``reason`` says the same in words:
    "converged", "iteration cap reached", "evaluation cap reached" or "time
    budget exhausted", and on breakdown the error's message, followed by
    the type of the residual's exception in parentheses when one caused it.
    """

    x: Array
    res: Array
    normF: float
    iter: int
    fcnt: int
    istop: int
    reason: str
    wall_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "res": [float(v) for v in self.res],
            "normF": float(self.normF),
            "iter": int(self.iter),
            "fcnt": int(self.fcnt),
            "istop": int(self.istop),
            "reason": self.reason,
            "wall_seconds": float(self.wall_seconds),
        }
