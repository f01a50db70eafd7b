"""Nonmonotone double-backtracking line search along the residual direction."""

from __future__ import annotations

import math

from .core import EPS_MACH, Array, BreakdownError, CountedEvaluator

# Fixed DF-SANE constants (La Cruz, Martinez & Raydan, 2006): the sufficient
# decrease factor, the step-cut safeguards and the nonmonotone memory.
GAMMA = 1e-4
TAU_MIN = 0.1
TAU_MAX = 0.5
M = 10


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


def probe_point(x: Array, F: Array, sigma: float, t: float) -> Array:
    """The probe x + t d along d = -sigma F, with t = alpha or t = -alpha: one
    n-vector, as numpy reuses the temporaries d and t d."""
    return x + t * (-sigma * F)


def double_backtracking(ev: CountedEvaluator, x: Array, F: Array, f_k: float,
                        sigma: float, fbar: float, eta_k: float
                        ) -> tuple[float, Array, Array, float]:
    """Backtrack along -sigma F and +sigma F with independent step sizes.

    Returns the accepted step as ``(t, x_trial, F_trial, f_trial)``: the
    signed step, t = alpha along -sigma F and t = -alpha along +sigma F, the
    trial point ``probe_point(x, F, sigma, t)``, its residual and merit value.
    The evaluations spent are ``ev.fcnt``'s growth across the call.

    One round probes t = +alpha_+, then t = -alpha_-, through the same
    block: the probe, its evaluation, the armijo_ok test against ``fbar``
    (the largest of the last M merit values) and the forcing term
    ``eta_k``, and the release of a rejected probe and its F before the next
    probe.  Both steps start at 1; a rejected probe cuts its own step via
    quad_new_alpha.  Raises BreakdownError once both steps fall below
    machine epsilon without acceptance.
    """
    fcnt0 = ev.fcnt
    alphas = [1.0, 1.0]
    while True:
        for i, sign in (0, 1.0), (1, -1.0):
            alpha = alphas[i]
            x_probe = probe_point(x, F, sigma, sign * alpha)
            F_probe, f_probe = ev.evaluate(x_probe)
            if armijo_ok(f_probe, fbar, eta_k, alpha, f_k):
                return sign * alpha, x_probe, F_probe, f_probe
            x_probe = F_probe = None
            alphas[i] = quad_new_alpha(alpha, f_k, f_probe)
        if alphas[0] < EPS_MACH and alphas[1] < EPS_MACH:
            raise BreakdownError(
                f"line search step underflow after {ev.fcnt - fcnt0} evaluations")
