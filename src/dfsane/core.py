"""Core types: problems, solver configuration, counted evaluation, reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from time import perf_counter
from typing import Callable
from weakref import ref

import numpy as np

Array = np.ndarray
Residual = Callable[[Array], Array]

EPS_MACH = float(np.finfo(np.float64).eps)
# The package's one cache-block size: rows per block of the window's factored
# layout (also the largest n that keeps its direct layout) and of the blocked
# residuals.  A 7-column block of Q (0.9 MiB) stays in a 2 MiB L2 cache.
BLOCK_ROWS = 16_384
# The one dtype object numpy gives native float64 arrays, so that the
# evaluator's fast path can test a residual's dtype by identity.
FLOAT64 = np.dtype(np.float64)

ISTOP_CONVERGED = 0
ISTOP_MAXIT = 1
ISTOP_BUDGET = 2
ISTOP_BREAKDOWN = 3

SOLVER_MODES = ("accelerated", "plain")


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
    be a pure function of its argument.  It must return a new array on each
    call, sharing no memory with x or with an earlier result: ``solve`` holds
    the current, trial and best F at once.  The evaluator rejects a result
    that is x itself or the array the previous call returned (a reused
    buffer) as a failed residual; a view into either is not detected.
    """

    name: str
    n: int
    residual: Residual
    x0: Array

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) or self.n < 1:
            raise ValueError("problem dimension must be a positive integer")
        object.__setattr__(self, "x0", as_vector(self.x0, self.n))


@dataclass(frozen=True)
class SolverConfig:
    """The settable numerical parameters (progress goes to ``solve``'s ``trace``).

    The method's fixed constants are not settings: GAMMA, TAU_MIN, TAU_MAX
    and the nonmonotone memory M live in ``linesearch``, SIGMA_MIN,
    SIGMA_MAX and SIGMA_SPG_MAX in ``steps``.
    ``nhlim`` equals p + 1 where p is the secant-window capacity in pairs.
    ``epsf`` is the convergence tolerance on ||F||_2; when left as None the
    solver uses 1e-6 * sqrt(n).  ``maxit`` / ``max_feval`` /
    ``time_budget_seconds`` are optional caps (absent means unbounded).
    The last two are hard caps, checked before every residual evaluation
    (line-search probes included).  Every stop, caps included, reports the
    best iterate seen.
    """

    nhlim: int = 6
    epsf: float | None = None
    maxit: int | None = None
    max_feval: int | None = None
    time_budget_seconds: float | None = None
    mode: str = "accelerated"

    def __post_init__(self):
        # A float cap is no count, and a bool is neither a count nor a number.
        for name in ("nhlim", "maxit", "max_feval", "epsf", "time_budget_seconds"):
            value, real = getattr(self, name), name in ("epsf", "time_budget_seconds")
            if isinstance(value, bool) or not (isinstance(value, Real if real else Integral)
                                               or (value is None and name != "nhlim")):
                raise ValueError(f"{name} must be {'positive' if real else 'an integer'}")
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
        if self.mode not in SOLVER_MODES:
            raise ValueError("mode must be 'accelerated' or 'plain'")

    @property
    def p(self) -> int:
        """Secant-window capacity in (s, y) pairs."""
        return self.nhlim - 1


class CountedEvaluator:
    """Wraps a problem's residual, counts every evaluation and enforces the caps.

    ``evaluate`` returns both F(x) and the merit value f = ||F(x)||_2^2.  A
    residual that returns an ndarray of shape (n,) whose dtype is the
    ``FLOAT64`` object itself is used as it is; anything else goes through
    ``as_vector``.  f is ``F.dot(F)``: the same BLAS ``ddot`` and the same
    bits as ``F @ F`` at less cost per call.  Finiteness is tested on the
    scalar f alone: a non-finite component makes it inf or NaN, and any
    non-finite f maps to +inf so that downstream comparisons reject the
    point without special cases.  It raises BudgetExhausted, without
    evaluating, once ``max_feval`` evaluations are made or ``perf_counter()``
    is past ``deadline``.  A residual that raises or returns a wrong shape
    raises BreakdownError chained to its error, one that returns x or the
    previous call's result a BreakdownError of its own, on that call and
    whether or not the caller still holds that result: the evaluator keeps
    only a weak reference to it.  Floating-point warnings are the caller's
    to silence (``solve`` runs under ``np.errstate``).
    """

    def __init__(self, problem: Problem, max_feval: int | None = None,
                 deadline: float | None = None):
        self.problem = problem
        self.max_feval = max_feval
        self.deadline = deadline
        self.fcnt = 0
        self._last: Callable[[], Array | None] = lambda: None

    def evaluate(self, x: Array) -> tuple[Array, float]:
        if self.fcnt == self.max_feval:
            raise BudgetExhausted("evaluation cap reached")
        if self.deadline is not None and perf_counter() > self.deadline:
            raise BudgetExhausted("time budget exhausted")
        self.fcnt += 1
        problem = self.problem
        try:
            F = problem.residual(x)
            if type(F) is not np.ndarray or F.dtype is not FLOAT64 or F.shape != (problem.n,):
                F = as_vector(F, problem.n)
        except Exception as exc:
            raise BreakdownError(f"residual failed: {exc}") from exc
        if F is x or F is self._last():
            raise BreakdownError("residual failed: it returned its argument or its "
                                 "previous result, not a new array")
        self._last = ref(F)
        f = float(F.dot(F))
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
        """The report as standard JSON values: a non-finite float (an
        overflowed residual, say) becomes None, written as ``null``."""
        return {
            "x": [_json_float(v) for v in self.x],
            "res": [_json_float(v) for v in self.res],
            "normF": _json_float(self.normF),
            "iter": int(self.iter),
            "fcnt": int(self.fcnt),
            "istop": int(self.istop),
            "reason": self.reason,
            "wall_seconds": float(self.wall_seconds),
        }


def _json_float(v) -> float | None:
    v = float(v)
    return v if math.isfinite(v) else None
