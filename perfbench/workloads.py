"""Workload definitions: which problems each workload solves, in which modes,
and how ``--seed`` turns into inputs.

Every solve runs with epsf = 1e-6 * sqrt(n) (the ``run_suite`` default),
``max_feval = MAX_FEVAL`` and no time budget: a time budget would make the
evaluation counts depend on machine speed.

Importing this module imports ``dfsane`` (and with it numpy); the set-up
probe in ``run.py`` times exactly that import plus ``build``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from dfsane import Problem, SolverConfig, make, suite_builtin

MAX_FEVAL = 100_000
LARGE_N = 1_000_000
PERTURBATION = 0.01


def _large_n() -> list[Problem]:
    return [make("broyden-tri", LARGE_N), make("trigexp", LARGE_N)]


@dataclass(frozen=True)
class Workload:
    """One set of solves.  ``why`` records the reason the workload exists;
    ``seeds`` records what ``--seed`` changes in it and why."""

    name: str
    modes: tuple[str, ...]
    make_problems: Callable[[], list[Problem]]
    perturb_x0: bool
    why: str
    seeds: str

    def solver_configs(self) -> dict[str, SolverConfig]:
        return {mode: SolverConfig(mode=mode, max_feval=MAX_FEVAL) for mode in self.modes}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-suite",
        modes=("accelerated", "plain"),
        make_problems=suite_builtin,
        perturb_x0=False,
        why="The built-in suite (n = 2..1000) in both modes, then the profile "
            "pipeline.  Per-call overhead in core and linesearch dominates, and "
            "the acceleration kernel runs at small n.",
        seeds="Seed 0 keeps the registered order; seed s > 0 shuffles the order "
              "of the problems.  Start points stay the registered ones at every "
              "seed: under a 1% start-point perturbation rosenbrock-10 and "
              "powell-singular swing between 5k and 100k evaluations, so the "
              "pass total varied 130k..322k over seeds 1..10 (quartile spread "
              "40% of the median) and no bound could be held.  Traced runs "
              "also solve the suite once from the seed-perturbed start points "
              "and print that table, so such flips stay visible.",
    ),
    Workload(
        name="large-n-accel",
        modes=("accelerated",),
        make_problems=_large_n,
        perturb_x0=True,
        why="broyden-tri and trigexp at n = 1e6, accelerated.  The acceleration "
            "kernel dominates and its working set (S and Y, 48 MB each) exceeds "
            "the last-level cache.",
        seeds="Seed 0 uses the registered start points; seed s > 0 perturbs "
              "each component of x0 by a seeded relative 1% (additive 0.01 u "
              "where x0 is 0).  At n = 1e6 the evaluation count barely moves.",
    ),
    Workload(
        name="large-n-plain",
        modes=("plain",),
        make_problems=_large_n,
        perturb_x0=True,
        why="The same problems and n in plain mode: the kernel is bypassed, so "
            "this is the control on which a kernel change must predict no "
            "change.  The residual and sigma_k dominate.",
        seeds="As large-n-accel.",
    ),
)}


def perturbed(problem: Problem, rng: np.random.Generator) -> Problem:
    """``problem`` with x0 moved componentwise by a relative PERTURBATION
    (additive where the component is 0)."""
    u = rng.uniform(-1.0, 1.0, problem.n)
    x0 = problem.x0
    return replace(problem, x0=np.where(x0 == 0.0, PERTURBATION * u,
                                        x0 * (1.0 + PERTURBATION * u)))


def build(name: str, seed: int) -> list[Problem]:
    """The workload's problems for ``seed``; the same seed gives the same inputs."""
    workload = WORKLOADS[name]
    problems = workload.make_problems()
    if seed == 0:
        return problems
    rng = np.random.default_rng(seed)
    if workload.perturb_x0:
        return [perturbed(p, rng) for p in problems]
    return [problems[i] for i in rng.permutation(len(problems))]
