"""Command-line front end: solve a named problem, benchmark the suite, and
render performance profiles.

A bad argument, input file or output path raises ``_UsageError`` before any
solve runs or any file is written; ``dispatch`` alone prints it."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .bench import (
    perf_profile,
    read_records_csv,
    records_to_matrix,
    run_suite,
    write_profile,
    write_records_csv,
)
from .core import SOLVER_MODES, SolveReport, SolverConfig
from .problems import (FIXTURE_PATTERN, REGISTRY, fixtures_from_dir, make, read_numbers,
                       suite_builtin)
from .solver import solve

_ITER_LINE = "Iter:  {}  f =  {!r}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsane",
        description="Derivative-free spectral residual solver for square "
                    "nonlinear systems, with sequential-secant acceleration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one named problem")
    p_solve.add_argument("--problem", required=True, help="registered problem name")
    p_solve.add_argument("--n", type=int, default=None, help="problem dimension")
    p_solve.add_argument("--nhlim", type=int, default=SolverConfig.nhlim,
                         help="secant history limit (window holds nhlim-1 pairs)")
    p_solve.add_argument("--epsf", type=float, default=None,
                         help="stopping tolerance on ||F||_2 (default 1e-6*sqrt(n))")
    p_solve.add_argument("--maxit", type=int, default=None, help="iteration cap")
    p_solve.add_argument("--iprint", type=int, default=-1, choices=(-1, 0, 1, 2),
                         help="verbosity of the iteration trace")
    p_solve.add_argument("--mode", choices=SOLVER_MODES, default=SolverConfig.mode)
    p_solve.add_argument("--x0-file", default=None,
                         help="text file with n numbers overriding the start point")
    p_solve.add_argument("--json", action="store_true",
                         help="emit the report as JSON on stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a problem suite under budgets")
    p_bench.add_argument("--suite", action="store_true",
                         help="include the built-in problem suite")
    p_bench.add_argument("--fixture-dir", default=None,
                         help=f"directory of linear fixtures ({FIXTURE_PATTERN})")
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
    print(f"reason = {rep.reason}")


class _IterationPrinter:
    """A ``trace`` for ``solve`` that prints each record's ``--iprint`` lines
    as the solver appends it, ending with the next iterate's ``Iter:`` line."""

    def __init__(self, level: int, p: int):
        self.level, self.p = level, p

    def append(self, rec) -> None:
        if rec.k == 0:
            print(_ITER_LINE.format(0, rec.f_current))
        if self.level >= 1:
            print(f"    ls: dir = {rec.direction}  alpha = {rec.alpha!r}  "
                  f"evals = {rec.ls_evals}  f = {rec.f_trial!r}")
        if self.level >= 2 and rec.f_accel is not None:
            # The window holds min(k, p) pairs before the trial pair joins it.
            print(f"    accel: columns = {min(rec.k, self.p) + 1}  rank = {rec.rank}  "
                  f"|nu| = {rec.nu_norm!r}  f = {rec.f_accel!r}  "
                  f"accepted = {rec.accepted}")
        print(_ITER_LINE.format(rec.k + 1, rec.f_next))


class _UsageError(Exception):
    """A bad argument, input file or output path.  ``dispatch`` reports it
    as one ``error:`` line on stderr and exit code 2."""


@contextmanager
def _bad_input(*errors):
    """Report ``errors`` raised in the block as a _UsageError."""
    try:
        yield
    except errors as exc:
        raise _UsageError(exc) from exc


def _check_outputs(*paths, inputs=()) -> None:
    """Reject an output path (None skipped) that is empty, is a directory,
    lies in a directory that does not exist, or resolves to one of
    ``inputs`` or to another output, before any work is done."""
    taken = {os.path.realpath(path): f"input {path!r}" for path in inputs}
    for path in paths:
        if path is None:
            continue
        if not path:
            raise _UsageError("empty output path")
        if os.path.isdir(path):
            raise _UsageError(f"output path {path!r} is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise _UsageError(f"output directory {parent!r} does not exist")
        real = os.path.realpath(path)
        if real in taken:
            raise _UsageError(f"output path {path!r} is the same file as {taken[real]}")
        taken[real] = f"output {path!r}"


def _cmd_solve(args) -> int:
    if args.json and args.iprint >= 0:
        raise _UsageError("--json takes no --iprint 0, 1 or 2: both write to stdout")
    with _bad_input(KeyError, ValueError):
        problem = make(args.problem, args.n)
    if args.x0_file is not None:
        with _bad_input(OSError, ValueError):  # Problem checks the length
            problem = replace(problem, x0=read_numbers(args.x0_file))
    with _bad_input(ValueError):
        cfg = SolverConfig(nhlim=args.nhlim, epsf=args.epsf, maxit=args.maxit,
                           mode=args.mode)
    printer = _IterationPrinter(args.iprint, cfg.p) if args.iprint >= 0 else None
    rep = solve(problem, cfg, trace=printer)
    if printer is not None:
        if rep.iter == 0 and math.isfinite(rep.normF):  # no record opened iterate 0
            print(_ITER_LINE.format(0, rep.normF))
        if rep.istop == 0:
            print("success!")
    if args.json:
        print(json.dumps(rep.to_json_dict()))
    else:
        _print_report(rep)
    return 0


def _cmd_bench(args) -> int:
    fixture_dir = args.fixture_dir
    fixtures = [str(p) for p in Path(fixture_dir).glob(FIXTURE_PATTERN)] if fixture_dir else []
    _check_outputs(args.out, inputs=fixtures)
    out = Path(os.path.realpath(args.out))
    if fixture_dir and out.parent == Path(fixture_dir).resolve() \
            and out.match(FIXTURE_PATTERN):
        raise _UsageError(f"output path {args.out!r} is a {FIXTURE_PATTERN} file "
                          f"in the fixture directory")
    problems = []
    if args.suite:
        problems.extend(suite_builtin())
    if fixture_dir:
        with _bad_input(OSError, ValueError):
            problems.extend(fixtures_from_dir(fixture_dir))
    if not problems:
        raise _UsageError("nothing to run (pass --suite and/or --fixture-dir)")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers:
        raise _UsageError("no solver mode given")
    repeated = sorted({s for s in solvers if solvers.count(s) > 1})
    if repeated:
        raise _UsageError(f"repeated solver modes {repeated}")
    with _bad_input(ValueError):
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
    _check_outputs(args.out_csv, args.out_svg, inputs=args.inputs)
    records = []
    with _bad_input(OSError, ValueError):
        for path in args.inputs:
            records.extend(read_records_csv(path))
    if not records:
        raise _UsageError("no records in inputs")
    with _bad_input(ValueError):
        methods, _, t = records_to_matrix(records, metric=args.metric)
        curves = perf_profile(t, restrict_to_solved_by_all=args.restrict,
                              methods=methods)
    write_profile(curves, args.out_csv, args.out_svg)
    print(f"wrote {args.out_csv}" + (f" and {args.out_svg}" if args.out_svg else ""))
    return 0


def _cmd_list(args) -> int:
    for name, factory in sorted(REGISTRY.items()):
        print(f"{name} (default n = {factory().n})")
    return 0


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # A reader that stopped early (``| head``): point stdout at devnull so
        # the flush at exit raises no second error ("Note on SIGPIPE" in
        # Python's ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
