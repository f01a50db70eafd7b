"""Top-level solver loop: spectral residual iteration with nonmonotone
double backtracking and optional sequential-secant acceleration.

Each iteration evaluates the residual along +-sigma F until the nonmonotone
test accepts a trial point; in accelerated mode one extra evaluation prices
the extrapolated candidate and the iterate with the smaller residual norm
wins (ties keep the trial point, which carries the line-search guarantee).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .accel import SecantWindow, accel_point
from .core import (
    ISTOP_BREAKDOWN,
    ISTOP_BUDGET,
    ISTOP_CONVERGED,
    ISTOP_MAXIT,
    BreakdownError,
    BudgetExhausted,
    CountedEvaluator,
    Problem,
    SolveReport,
    SolverConfig,
)
from .linesearch import M, double_backtracking, probe_point
from .steps import secant_pair, sigma_k


@dataclass(frozen=True)
class IterationRecord:
    """Trace entry for one iteration (used by audits, regression tests and
    the CLI's ``--iprint`` lines).

    ``alpha`` and ``direction`` are |t| and the sign of the line search's
    signed step t: ``"-"`` for t > 0, along -sigma F, ``"+"`` for t < 0,
    along +sigma F.  ``rank`` and ``nu_norm`` are the numerical rank of the
    secant difference matrix, as ``np.linalg.lstsq`` counts it (singular
    values above eps * max(n, m) * sigma_max), and ||nu||_2 of the
    acceleration step; both are None in plain mode.
    """

    k: int
    sigma: float
    fbar: float
    eta: float
    alpha: float
    ls_evals: int
    f_current: float
    f_trial: float
    f_accel: float | None
    accepted: str
    f_next: float
    direction: str | None = None
    rank: int | None = None
    nu_norm: float | None = None


def solve(problem: Problem, cfg: SolverConfig | None = None,
          trace: list[IterationRecord] | None = None) -> SolveReport:
    """Solve F(x) = 0 from ``problem.x0`` (another start: ``replace(problem, x0=x)``).

    Stops when ||F||_2 <= epsf (istop 0), at the iteration cap (istop 1),
    when the evaluation cap or time budget runs out (istop 2, hard caps
    checked before every evaluation), or on breakdown (istop 3): a step
    underflow, a non-finite residual at the start point, or a residual that
    raises or returns a wrong shape.  Every stop reports the best iterate
    seen: the start point or a completed iterate with the smallest merit
    value, which on convergence is the current one.  ``SolveReport.reason``
    names the stop in words; on breakdown it carries the error's message.  A
    faulty residual is reported, not re-raised: its reason reads ``residual
    failed: <message> (<type>)``, which names the residual as the cause, so
    it cannot pass for a step underflow.  ``trace`` (a list, or any object
    with an ``append`` method) gets each iteration's IterationRecord as it
    completes, ``iter`` in all; ``solve`` writes nothing.  The iteration,
    residual calls included, runs under one ``np.errstate(all="ignore")``:
    overflow, invalid operations and division by zero raise no warning (a
    non-finite merit value is +inf and fails the line search's test), and
    the caller's error state is restored on return.
    """
    cfg = SolverConfig() if cfg is None else cfg
    accelerated = cfg.mode == "accelerated"
    x = problem.x0.copy()
    epsf = cfg.epsf if cfg.epsf is not None else 1e-6 * math.sqrt(problem.n)
    start = time.perf_counter()
    deadline = None if cfg.time_budget_seconds is None else start + cfg.time_budget_seconds
    ev = CountedEvaluator(problem, cfg.max_feval, deadline)

    def report(k: int, istop: int, reason: str) -> SolveReport:
        # Every exit reports the best iterate seen.  best_F is None when the
        # first evaluation did not complete; building the NaN vector only
        # then keeps it off the peak memory of large solves.
        res = np.full(problem.n, math.nan) if best_F is None else best_F
        return SolveReport(x=best_x, res=res, normF=best_f, iter=k, fcnt=ev.fcnt,
                           istop=istop, reason=reason,
                           wall_seconds=time.perf_counter() - start)

    F, f = None, math.inf
    best_x, best_F, best_f = x, F, f
    fvals: deque[float] = deque(maxlen=M)
    # (s'y, s's) of the newest secant pair (x - previous x, F - previous F)
    pair: tuple[float, float] | None = None
    window = SecantWindow(cfg.p) if accelerated else None
    k = 0
    with np.errstate(all="ignore"):
        try:
            F, f = ev.evaluate(x)
            best_F, best_f = F, f
            if not math.isfinite(f):
                # No trial point can pass the nonmonotone test against fbar = inf.
                raise BreakdownError("merit value at the start point is not finite")
            r0 = math.sqrt(f)
            # No source is known here for eta_k = 2^-k min(||F0|| / 2, sqrt(||F0||)).  SciPy
            # 1.17.1 uses ||F0||^2 / (1 + k)^2 (optimize/_spectral.py, lines 71-76), departing
            # from La Cruz et al. (2006) because "their eta is not invariant vs. scaling of F".
            eta0 = min(0.5 * r0, math.sqrt(r0))
            fvals.append(f)

            while True:
                if math.sqrt(f) <= epsf:
                    return report(k, ISTOP_CONVERGED, "converged")
                if cfg.maxit is not None and k >= cfg.maxit:
                    return report(k, ISTOP_MAXIT, "iteration cap reached")

                sigma = sigma_k(pair, x, f)
                fbar = max(fvals)
                eta = math.ldexp(eta0, -k)
                fcnt0 = ev.fcnt
                t, x_new, F_new, f_trial = double_backtracking(ev, x, F, f, sigma, fbar, eta)
                ls_evals = ev.fcnt - fcnt0
                f_new, accepted = f_trial, "trial"

                f_accel: float | None = None
                if accelerated:
                    window.trial_difference(x_new, x, F_new, F)
                    x_accel = accel_point(window, None, None, x_new, F_new,
                                          out=window.spare_row())
                    x_new = None  # rebuilt if the trial wins; not held through the evaluation
                    F_accel, f_accel = ev.evaluate(x_accel)
                    # The kept point's pair joins the window; the trial pair
                    # keeps its y row or factor column.  x_accel lives in the
                    # row that the push overwrites: a winning one is copied
                    # out once the trial F is released.
                    if f_accel < f_new:
                        F_new, f_new, accepted = F_accel, f_accel, "accel"
                        x_new = x_accel.copy()
                        window.push_difference(x_new, x, F_new, F)
                    else:
                        F_accel = None
                        x_new = probe_point(x, F, sigma, t)
                        window.keep_trial(x_new, x)
                pair = secant_pair(x_new, x, F_new, F)

                if trace is not None:
                    trace.append(IterationRecord(
                        k=k, sigma=sigma, fbar=fbar, eta=eta, alpha=abs(t),
                        ls_evals=ls_evals, f_current=f, f_trial=f_trial,
                        f_accel=f_accel, accepted=accepted, f_next=f_new,
                        direction="-" if t > 0 else "+",
                        rank=window.rank if accelerated else None,
                        nu_norm=float(np.linalg.norm(window.nu)) if accelerated else None))

                x, F, f = x_new, F_new, f_new
                if f < best_f:
                    best_x, best_F, best_f = x, F, f
                fvals.append(f)
                k += 1
        except BudgetExhausted as exc:
            return report(k, ISTOP_BUDGET, str(exc))
        except BreakdownError as exc:
            cause = exc.__cause__
            reason = str(exc) if cause is None else f"{exc} ({type(cause).__name__})"
            return report(k, ISTOP_BREAKDOWN, reason)
