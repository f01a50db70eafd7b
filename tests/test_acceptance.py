"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs as well.
"""

import math
import time
from pathlib import Path

import numpy as np

from dfsane.accel import min_norm_ls
from dfsane.bench import perf_profile, records_to_matrix, run_suite, BenchRecord
from dfsane.core import Problem, SolverConfig
from dfsane.linesearch import armijo_ok
from dfsane.problems import booth, expfun2, suite_builtin
from dfsane.solver import solve


def _report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance {cid}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_expfun2_golden():
    p = expfun2(3)
    rep = solve(p, SolverConfig(epsf=1e-6 * math.sqrt(3)))
    ok = (rep.istop == 0 and rep.iter <= 10 and rep.fcnt <= 30
          and rep.normF <= 1e-12 and rep.wall_seconds < 0.1)
    # parity with the reference run (iter 5, fcnt 11) within a factor of two
    ok = ok and 2.5 <= rep.iter <= 10 and 5.5 <= rep.fcnt <= 22
    _report("1 expfun2 golden", ok,
            f"istop={rep.istop} iter={rep.iter} fcnt={rep.fcnt} "
            f"f={rep.normF:.3e} t={rep.wall_seconds:.4f}s")


def test_criterion_2_booth_golden():
    rep = solve(booth(), SolverConfig())
    ok = (rep.istop == 0 and rep.iter <= 10 and rep.normF <= 1e-20
          and np.max(np.abs(rep.x - np.array([1.0, 3.0]))) <= 1e-8
          and rep.wall_seconds < 0.1)
    _report("2 booth golden", ok,
            f"istop={rep.istop} iter={rep.iter} fcnt={rep.fcnt} "
            f"f={rep.normF:.3e} x={rep.x}")


def test_criterion_3_pseudoinverse_oracle():
    rng = np.random.default_rng(314159)
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_norm = 0.0
    deficient = 0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        if trial % 3 > 0 and m >= 2:
            r = int(rng.integers(1, m))
            Y = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
            if trial % 3 == 2:
                Y[:, -1] = Y[:, 0]
            deficient += 1
        else:
            Y = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
        nu = min_norm_ls(Y, b)
        nu_star = np.linalg.pinv(Y) @ b       # independent SVD oracle
        worst_res = max(worst_res, abs(np.linalg.norm(Y @ nu - b)
                                       - np.linalg.norm(Y @ nu_star - b)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(nu)
                                         - np.linalg.norm(nu_star)))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-8 and worst_norm <= 1e-8 and deficient >= 50 \
        and elapsed < 5.0
    _report("3 pseudoinverse oracle", ok,
            f"res_dev={worst_res:.2e} norm_dev={worst_norm:.2e} "
            f"deficient={deficient} t={elapsed:.2f}s")


def test_criterion_4_linear_exactness():
    rng = np.random.default_rng(271828)
    t0 = time.perf_counter()
    failures = []
    plain_within = 0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        while True:
            A = rng.standard_normal((n, n))
            if np.linalg.cond(A) < 100.0:
                break
        b = A @ rng.standard_normal(n)
        p = Problem(f"lin{trial}", n, lambda x, A=A, b=b: A @ x - b,
                    rng.standard_normal(n))
        rep = solve(p, SolverConfig(nhlim=n + 2, epsf=1e-10))
        if not (rep.istop == 0 and rep.iter <= n + 3):
            failures.append((trial, n, rep.iter, rep.istop))
        # plain mode is allowed to take more iterations; just record it
        plain = solve(p, SolverConfig(mode="plain", nhlim=n + 2,
                                      epsf=1e-10, maxit=150))
        if plain.istop == 0 and plain.iter <= n + 3:
            plain_within += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report("4 linear exactness", ok,
            f"failures={failures} plain_within_cap={plain_within}/20 "
            f"t={elapsed:.2f}s")


def _suite_runs_with_traces():
    configs = {
        "accelerated": SolverConfig(mode="accelerated", max_feval=100_000,
                                    time_budget_seconds=10.0),
        "plain": SolverConfig(mode="plain", max_feval=100_000,
                              time_budget_seconds=10.0),
    }
    runs = []
    for problem in suite_builtin():
        epsf = 1e-6 * math.sqrt(problem.n)
        for name, cfg in configs.items():
            trace = []
            from dataclasses import replace
            rep = solve(problem, replace(cfg, epsf=epsf), trace=trace)
            runs.append((problem, name, cfg, rep, trace))
    return runs


def test_criterion_5_armijo_audit():
    violations = 0
    audited = 0
    for problem, name, cfg, rep, trace in _suite_runs_with_traces():
        for rec in trace:
            audited += 1
            if not armijo_ok(rec.f_trial, rec.fbar, rec.eta, rec.alpha, rec.f_current):
                violations += 1
    ok = violations == 0 and audited > 0
    _report("5 armijo audit", ok, f"audited={audited} violations={violations}")


def test_criterion_6_robustness_desk_scale():
    t0 = time.perf_counter()
    configs = {
        "accelerated": SolverConfig(mode="accelerated", max_feval=100_000,
                                    time_budget_seconds=10.0),
        "plain": SolverConfig(mode="plain", max_feval=100_000,
                              time_budget_seconds=10.0),
    }
    suite = suite_builtin()
    records = run_suite(suite, configs)
    elapsed = time.perf_counter() - t0
    acc = {r.problem for r in records if r.solver == "accelerated" and r.solved}
    pla = {r.problem for r in records if r.solver == "plain" and r.solved}
    only_acc = acc - pla
    ok = (len(suite) >= 10 and len(acc) >= len(pla) and len(only_acc) >= 1
          and elapsed < 180.0)
    _report("6 robustness", ok,
            f"accelerated={len(acc)}/{len(suite)} plain={len(pla)}/{len(suite)} "
            f"accel_only={sorted(only_acc)} t={elapsed:.1f}s")


def test_criterion_7_performance_profile_unit():
    curves = perf_profile([[1.0, 2.0], [2.0, 1.0]])
    exact = curves[0].value_at(1.0) == 0.5 and curves[0].value_at(2.0) == 1.0

    rng = np.random.default_rng(99)
    invariants = True
    for _ in range(100):
        t = 10.0 ** rng.uniform(-3, 3, size=(int(rng.integers(2, 5)),
                                             int(rng.integers(1, 10))))
        t[rng.random(t.shape) < 0.3] = math.inf
        for c in perf_profile(t):
            if np.any(np.diff(c.gammas) < 0) or np.any(c.gammas < 0) \
                    or np.any(c.gammas > 1.0):
                invariants = False

    floored = BenchRecord(problem="p", n=1, solver="m", normF_final=0.0,
                          iter=1, feval=1, time_seconds=1e-4, solved=True)
    _, _, t = records_to_matrix([floored], "time")
    floor_applied = t[0, 0] == 0.01

    ok = exact and invariants and floor_applied
    _report("7 performance profiles", ok,
            f"exact={exact} invariants={invariants} floor={floor_applied}")


def test_criterion_8_scope_statement():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    ok = "CUTEst" in text and ("not reproduce" in text or "out of scope" in text)
    _report("8 scope statement", ok,
            "README documents the desk-scale substitution for the external "
            "collection comparisons")
