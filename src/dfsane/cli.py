"""Command-line front end: solve a named problem, benchmark the suite, and
render performance profiles."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import (
    perf_profile,
    read_records_csv,
    records_to_matrix,
    run_suite,
    write_profile,
    write_records_csv,
)
from .core import SolveReport, SolverConfig
from .problems import REGISTRY, fixtures_from_dir, make, suite_builtin
from .solver import solve

FIXTURE_DIR_ENV = "DFSANE_FIXTURE_DIR"
SOLVER_MODES = ("accelerated", "plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsane",
        description="Derivative-free spectral residual solver for square "
                    "nonlinear systems, with sequential-secant acceleration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one named problem")
    p_solve.add_argument("--problem", required=True, help="registered problem name")
    p_solve.add_argument("--n", type=int, default=None, help="problem dimension")
    p_solve.add_argument("--nhlim", type=int, default=6,
                         help="secant history limit (window holds nhlim-1 pairs)")
    p_solve.add_argument("--epsf", type=float, default=None,
                         help="stopping tolerance on ||F||_2 (default 1e-6*sqrt(n))")
    p_solve.add_argument("--maxit", type=int, default=None, help="iteration cap")
    p_solve.add_argument("--iprint", type=int, default=-1, choices=(-1, 0, 1, 2),
                         help="verbosity of the iteration trace")
    p_solve.add_argument("--mode", choices=SOLVER_MODES, default="accelerated")
    p_solve.add_argument("--x0-file", default=None,
                         help="text file with n numbers overriding the start point")
    p_solve.add_argument("--json", action="store_true",
                         help="emit the report as JSON on stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a problem suite under budgets")
    p_bench.add_argument("--suite", action="store_true",
                         help="include the built-in problem suite")
    p_bench.add_argument("--fixture-dir", default=None,
                         help=f"directory of linear fixtures (*.txt); defaults to "
                              f"${FIXTURE_DIR_ENV} when set")
    p_bench.add_argument("--solvers", default="accelerated,plain",
                         help="comma-separated solver modes to run")
    p_bench.add_argument("--budget", type=float, default=10.0,
                         help="wall-clock seconds per run")
    p_bench.add_argument("--feval-cap", type=int, default=100_000,
                         help="residual-evaluation cap per run")
    p_bench.add_argument("--out", default="bench.csv", help="output CSV path")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser("profile", help="performance profiles from bench CSVs")
    p_prof.add_argument("--inputs", nargs="+", required=True,
                        help="bench record CSVs (concatenated)")
    p_prof.add_argument("--metric", choices=("feval", "time"), default="feval")
    p_prof.add_argument("--restrict", action="store_true",
                        help="keep only problems solved by every method")
    p_prof.add_argument("--out-csv", default="profile.csv")
    p_prof.add_argument("--out-svg", default=None)
    p_prof.set_defaults(func=_cmd_profile)

    p_list = sub.add_parser("list", help="list registered problems")
    p_list.set_defaults(func=_cmd_list)
    return parser


def _fmt_components(v, limit: int = 10) -> str:
    vals = [repr(float(t)) for t in v[:limit]]
    if len(v) > limit:
        vals.append(f"... ({len(v) - limit} more)")
    return "[" + ", ".join(vals) + "]"


def _print_report(rep: SolveReport) -> None:
    print()
    print(f"x = {_fmt_components(rep.x)}")
    print(f"res = {_fmt_components(rep.res)}")
    print(f"normF = {rep.normF!r}")
    print(f"iter = {rep.iter}")
    print(f"fcnt = {rep.fcnt}")
    print(f"istop = {rep.istop}")


def _cmd_solve(args) -> int:
    try:
        problem = make(args.problem, args.n)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x_start = None
    if args.x0_file is not None:
        x_start = np.loadtxt(args.x0_file, dtype=np.float64).ravel()
        if x_start.size != problem.n:
            print(f"error: start point has {x_start.size} entries, "
                  f"need {problem.n}", file=sys.stderr)
            return 2
    try:
        cfg = SolverConfig(nhlim=args.nhlim, epsf=args.epsf, maxit=args.maxit,
                           iprint=args.iprint, mode=args.mode)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = solve(problem, cfg, x_start)
    if args.json:
        print(json.dumps(rep.to_json_dict()))
    else:
        _print_report(rep)
    return 0


def _cmd_bench(args) -> int:
    problems = []
    if args.suite:
        problems.extend(suite_builtin())
    fixture_dir = args.fixture_dir or os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir:
        try:
            problems.extend(fixtures_from_dir(fixture_dir))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not problems:
        print("error: nothing to run (pass --suite and/or --fixture-dir)",
              file=sys.stderr)
        return 2
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    bad = [s for s in solvers if s not in SOLVER_MODES]
    if bad or not solvers:
        print(f"error: unknown solver modes {bad}", file=sys.stderr)
        return 2
    configs = {name: SolverConfig(mode=name, max_feval=args.feval_cap,
                                  time_budget_seconds=args.budget)
               for name in solvers}
    records = run_suite(problems, configs)
    write_records_csv(records, args.out)
    for name in solvers:
        solved = sum(r.solved for r in records if r.solver == name)
        total = sum(1 for r in records if r.solver == name)
        print(f"{name}: solved {solved}/{total}")
    print(f"wrote {args.out}")
    return 0


def _cmd_profile(args) -> int:
    records = []
    try:
        for path in args.inputs:
            records.extend(read_records_csv(path))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print("error: no records in inputs", file=sys.stderr)
        return 2
    methods, _, t = records_to_matrix(records, metric=args.metric)
    try:
        curves = perf_profile(t, restrict_to_solved_by_all=args.restrict,
                              methods=methods)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_profile(curves, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv}" + (f" and {args.out_svg}" if args.out_svg else ""))
    return 0


def _cmd_list(args) -> int:
    for name, (_, default_n, _) in sorted(REGISTRY.items()):
        print(f"{name} (default n = {default_n})")
    return 0


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
