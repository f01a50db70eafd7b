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
from dataclasses import dataclass

import numpy as np

from .accel import SecantWindow, accel_point
from .core import (
    ISTOP_BREAKDOWN,
    ISTOP_BUDGET,
    ISTOP_CONVERGED,
    ISTOP_MAXIT,
    Array,
    BreakdownError,
    BudgetExhausted,
    CountedEvaluator,
    Problem,
    SolveReport,
    SolverConfig,
    as_vector,
)
from .linesearch import M, FWindow, double_backtracking
from .steps import EtaSchedule, sigma_k


@dataclass(frozen=True)
class IterationRecord:
    """Trace entry for one iteration (used by audits, regression tests and
    the iprint lines).

    ``direction`` is the accepted line-search direction (``"-"`` for
    -sigma F, ``"+"`` for +sigma F).  ``rank`` and ``nu_norm`` are the
    numerical rank of the secant difference matrix, as ``np.linalg.lstsq``
    counts it (singular values above eps * max(n, m) * sigma_max), and
    ||nu||_2 of the acceleration step; both are None in plain mode.
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


def _print_record(rec: IterationRecord, cfg: SolverConfig) -> None:
    """The iprint >= 1 lines of one completed iteration."""
    print(f"    ls: dir = {rec.direction}  alpha = {rec.alpha!r}  "
          f"evals = {rec.ls_evals}  f = {rec.f_trial!r}")
    if cfg.iprint >= 2 and rec.f_accel is not None:
        # One (s, y) pair joins the window per iteration, so the window holds
        # min(k, p) pairs before the trial pair is added.
        print(f"    accel: columns = {min(rec.k, cfg.p) + 1}  rank = {rec.rank}  "
              f"|nu| = {rec.nu_norm!r}  f = {rec.f_accel!r}  "
              f"accepted = {rec.accepted}")


def solve(problem: Problem, cfg: SolverConfig | None = None,
          x_start: Array | None = None,
          trace: list[IterationRecord] | None = None) -> SolveReport:
    """Solve F(x) = 0 from ``x_start`` (default: the problem's start point).

    Stops when ||F||_2 <= epsf (istop 0), at the iteration cap (istop 1),
    when the evaluation cap or time budget runs out (istop 2, hard caps
    checked before every evaluation), or on breakdown (istop 3): a step
    underflow, a non-finite residual at the start point, or a residual that
    raises or returns a wrong shape.  Every stop reports the best iterate
    seen: the start point or a completed iterate with the smallest merit
    value, which on convergence is the current one.  ``SolveReport.reason``
    names the stop in words; on breakdown it carries the error's message and
    the type of the residual's exception, if one caused it.  When ``trace`` is a list,
    it gets one IterationRecord per completed iteration, ``iter`` in all;
    ``cfg.iprint`` prints from the same records.  The iteration, residual
    calls included, runs under one ``np.errstate(all="ignore")``, so
    overflow, invalid operations and division by zero raise no warning (a
    non-finite merit value is +inf and fails the line search's test), and
    the caller's error state is restored on return.
    """
    cfg = SolverConfig() if cfg is None else cfg
    accelerated = cfg.mode == "accelerated"
    recording = trace is not None or cfg.iprint >= 1
    x = as_vector(problem.x0 if x_start is None else x_start, problem.n).copy()
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

    rank: int | None = None
    nu_norm: float | None = None

    def on_info(_columns: int, r: int, nu: float) -> None:
        nonlocal rank, nu_norm
        rank, nu_norm = r, nu

    F, f = None, math.inf
    best_x, best_F, best_f = x, F, f
    fwindow = FWindow(M)
    prev_x: Array | None = None
    prev_F: Array | None = None
    window = SecantWindow(cfg.p) if accelerated else None
    k = 0
    with np.errstate(all="ignore"):
        try:
            F, f = ev.evaluate(x)
            best_F, best_f = F, f
            if not math.isfinite(f):
                # No trial point can pass the nonmonotone test against fbar = inf.
                raise BreakdownError("merit value at the start point is not finite")
            schedule = EtaSchedule.from_initial_residual(math.sqrt(f))
            fwindow.push(f)

            while True:
                if cfg.iprint >= 0:
                    print(f"Iter:  {k}  f =  {f!r}")
                if math.sqrt(f) <= epsf:
                    if cfg.iprint >= 0:
                        print("success!")
                    return report(k, ISTOP_CONVERGED, "converged")
                if cfg.maxit is not None and k >= cfg.maxit:
                    return report(k, ISTOP_MAXIT, "iteration cap reached")

                sigma = sigma_k(prev_x, prev_F, x, F)
                fbar = fwindow.barfk()
                eta = schedule.eta(k)
                ls = double_backtracking(ev, x, F, f, sigma, fbar, eta)

                f_accel: float | None = None
                if accelerated:
                    x_accel = accel_point(window, ls.x_trial - x, ls.F_trial - F,
                                          ls.x_trial, ls.F_trial,
                                          on_info=on_info if recording else None)
                    F_accel, f_accel = ev.evaluate(x_accel)
                    if f_accel < ls.f_trial:
                        x_new, F_new, f_new, accepted = x_accel, F_accel, f_accel, "accel"
                    else:
                        x_new, F_new, f_new, accepted = ls.x_trial, ls.F_trial, ls.f_trial, "trial"
                    window.push_pair(x_new - x, F_new - F)
                else:
                    x_new, F_new, f_new, accepted = ls.x_trial, ls.F_trial, ls.f_trial, "trial"

                if recording:
                    rec = IterationRecord(
                        k=k, sigma=sigma, fbar=fbar, eta=eta, alpha=ls.alpha,
                        ls_evals=ls.evals, f_current=f, f_trial=ls.f_trial,
                        f_accel=f_accel, accepted=accepted, f_next=f_new,
                        direction=ls.direction, rank=rank, nu_norm=nu_norm)
                    if trace is not None:
                        trace.append(rec)
                    if cfg.iprint >= 1:
                        _print_record(rec, cfg)

                prev_x, prev_F = x, F
                x, F, f = x_new, F_new, f_new
                if f < best_f:
                    best_x, best_F, best_f = x, F, f
                fwindow.push(f)
                k += 1
        except BudgetExhausted as exc:
            return report(k, ISTOP_BUDGET, str(exc))
        except BreakdownError as exc:
            cause = exc.__cause__
            reason = str(exc) if cause is None else f"{exc} ({type(cause).__name__})"
            return report(k, ISTOP_BREAKDOWN, reason)
