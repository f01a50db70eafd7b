"""Nonmonotone double-backtracking line search along the residual direction."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .core import EPS_MACH, Array, BreakdownError, CountedEvaluator

# Fixed DF-SANE constants (La Cruz, Martinez & Raydan, 2006): the sufficient
# decrease factor, the step-cut safeguards and the nonmonotone memory.
GAMMA = 1e-4
TAU_MIN = 0.1
TAU_MAX = 0.5
M = 10


class FWindow:
    """Ring buffer of the last M merit values f(x^k).

    The acceptance threshold of the nonmonotone test uses the maximum of the
    stored values.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("window length must be positive")
        self._buf: deque[float] = deque(maxlen=m)

    def push(self, f: float) -> None:
        self._buf.append(f)

    def barfk(self) -> float:
        """Maximum of the stored merit values."""
        if not self._buf:
            raise ValueError("barfk of an empty window")
        return max(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


@dataclass(frozen=True, eq=False)
class LineSearchOutcome:
    """An accepted step: step size, trial point, its residual and direction.

    ``direction`` names the accepted direction, ``"-"`` for -sigma F and
    ``"+"`` for +sigma F.
    """

    alpha: float
    x_trial: Array
    F_trial: Array
    f_trial: float
    evals: int
    direction: str


def armijo_ok(f_new: float, fbar: float, eta_k: float, alpha: float,
              f_k: float) -> bool:
    """Nonmonotone acceptance test f_new <= fbar + eta_k - GAMMA alpha^2 f_k.

    A non-finite f_new never passes.
    """
    return f_new <= fbar + eta_k - GAMMA * alpha * alpha * f_k


def quad_new_alpha(alpha: float, f_k: float, f_probe: float) -> float:
    """Safeguarded quadratic-interpolation step-size cut.

    Minimizes the quadratic through f(0) = f_k, f(alpha) = f_probe with slope
    -f_k at zero (unit-Jacobian model), clipped to
    [TAU_MIN * alpha, TAU_MAX * alpha].  Non-finite or non-positive
    denominators take the mildest cut TAU_MAX * alpha.  The clip is written
    out as comparisons, the same as max(lo, min(raw, hi)) for every input
    but without two builtin calls per probe.
    """
    hi = TAU_MAX * alpha
    denom = f_probe + (2.0 * alpha - 1.0) * f_k
    if not 0.0 < denom < math.inf:
        return hi
    raw = alpha * alpha * f_k / denom
    if not math.isfinite(raw):
        return hi
    lo = TAU_MIN * alpha
    capped = hi if hi < raw else raw
    return capped if capped > lo else lo


def double_backtracking(ev: CountedEvaluator, x: Array, F: Array, f_k: float,
                        sigma: float, fbar: float, eta_k: float) -> LineSearchOutcome:
    """Backtrack along -sigma F and +sigma F with independent step sizes.

    A probe is accepted by armijo_ok against ``fbar`` (the largest of the
    last M merit values) and the forcing term ``eta_k``.  Both directions
    start at step 1; each rejected round shrinks its own step via
    quad_new_alpha (the forward step from the forward probe, the reverse
    step from the reverse probe).  Raises BreakdownError once both steps fall
    below machine epsilon without acceptance.
    """
    d_minus = -sigma * F
    d_plus = -d_minus  # bitwise sigma * F: negation is exact
    alpha_plus = 1.0
    alpha_minus = 1.0
    evals = 0
    while True:
        x_probe = x + alpha_plus * d_minus
        F_probe, f_probe = ev.evaluate(x_probe)
        evals += 1
        if armijo_ok(f_probe, fbar, eta_k, alpha_plus, f_k):
            return LineSearchOutcome(alpha_plus, x_probe, F_probe, f_probe,
                                     evals, "-")
        f_minus_dir = f_probe

        x_probe = x + alpha_minus * d_plus
        F_probe, f_probe = ev.evaluate(x_probe)
        evals += 1
        if armijo_ok(f_probe, fbar, eta_k, alpha_minus, f_k):
            return LineSearchOutcome(alpha_minus, x_probe, F_probe, f_probe,
                                     evals, "+")

        alpha_plus = quad_new_alpha(alpha_plus, f_k, f_minus_dir)
        alpha_minus = quad_new_alpha(alpha_minus, f_k, f_probe)
        if alpha_plus < EPS_MACH and alpha_minus < EPS_MACH:
            raise BreakdownError(
                f"line search step underflow after {evals} evaluations")
