"""Benchmark harness: run solver/problem matrices, write result tables, and
compute performance profiles."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Array, Problem, SolverConfig
from .solver import solve

TIME_FLOOR_SECONDS = 0.01


def _true_or_false(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError(value)
    return value == "true"


# The CSV columns in BenchRecord's field order: how each field is read, and
# what it must hold
_COLUMN_READERS = {"problem": (str, "text"), "n": (int, "an integer"),
                   "solver": (str, "text"), "normF": (float, "a number"),
                   "iter": (int, "an integer"), "feval": (int, "an integer"),
                   "time": (float, "a number"), "solved": (_true_or_false, "true or false")}
RECORD_FIELDS = tuple(_COLUMN_READERS)


@dataclass(frozen=True)
class BenchRecord:
    """One solver x problem result row.

    ``normF_final`` is the plain residual norm ||F(x*)||_2 (not squared).
    """

    problem: str
    n: int
    solver: str
    normF_final: float
    iter: int
    feval: int
    time_seconds: float
    solved: bool


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """One method's performance-profile step function.

    ``taus`` are the sorted breakpoints; ``gammas`` the fraction of problems
    solved within each ratio.  The curve is right-continuous and
    nondecreasing.
    """

    method: str
    taus: Array
    gammas: Array

    def value_at(self, tau: float) -> float:
        idx = int(np.searchsorted(self.taus, tau, side="right"))
        return 0.0 if idx == 0 else float(self.gammas[idx - 1])


def run_suite(problems: Sequence[Problem],
              solver_configs: Mapping[str, SolverConfig]) -> list[BenchRecord]:
    """Run every solver configuration on every problem, one isolated solve each.

    Records come back in problem-major, solver-minor order.  Each solve gets
    its configuration with ``epsf`` set to 1e-6 * sqrt(n), the tolerance
    that also decides ``solved``; its caps (``max_feval``,
    ``time_budget_seconds``, ``maxit``) come from the configuration as given.
    A residual that raises ends its solve in breakdown, which is recorded as
    unsolved with the solve's own counts.  A (name, n) that two problems
    share is a ValueError, raised before any solve.
    """
    if not problems or not solver_configs:
        raise ValueError("need at least one problem and one solver configuration")
    keys = [(p.name, p.n) for p in problems]
    clashes = sorted({key for key in keys if keys.count(key) > 1})
    if clashes:
        raise ValueError(f"repeated problems (name, n) {clashes}")
    records = []
    for problem in problems:
        epsf = 1e-6 * math.sqrt(problem.n)
        for name, cfg in solver_configs.items():
            rep = solve(problem, replace(cfg, epsf=epsf))
            norm_f = math.sqrt(rep.normF)
            records.append(BenchRecord(
                problem=problem.name, n=problem.n, solver=name,
                normF_final=norm_f, iter=rep.iter, feval=rep.fcnt,
                time_seconds=rep.wall_seconds, solved=norm_f <= epsf))
    return records


def records_to_matrix(records: Sequence[BenchRecord],
                      metric: str) -> tuple[list[str], list[tuple[str, int]], Array]:
    """Arrange records into the methods x problems cost matrix for profiling.

    Unsolved (or missing) runs get +inf.  Time entries below
    TIME_FLOOR_SECONDS are floored before profiling; feval entries are used
    as-is.  A (problem, n, solver) that appears twice is a ValueError.
    """
    if metric not in ("feval", "time"):
        raise ValueError("metric must be 'feval' or 'time'")
    # row and column of each method and problem, in order of first appearance
    methods: dict[str, int] = {}
    keys: dict[tuple[str, int], int] = {}
    seen = set()
    for r in records:
        if (r.problem, r.n, r.solver) in seen:
            raise ValueError(f"repeated record: problem {r.problem!r}, n = {r.n}, "
                             f"solver {r.solver!r}")
        seen.add((r.problem, r.n, r.solver))
        methods.setdefault(r.solver, len(methods))
        keys.setdefault((r.problem, r.n), len(keys))
    t = np.full((len(methods), len(keys)), math.inf)
    for r in records:
        if not r.solved:
            continue
        i, j = methods[r.solver], keys[(r.problem, r.n)]
        if metric == "feval":
            t[i, j] = float(r.feval)
        else:
            t[i, j] = max(r.time_seconds, TIME_FLOOR_SECONDS)
    return list(methods), list(keys), t


def perf_profile(t, restrict_to_solved_by_all: bool = False,
                 methods: Sequence[str] | None = None) -> list[ProfileCurve]:
    """Performance profiles from a methods x problems cost matrix.

    Entry t[i, j] is method i's cost on problem j, +inf when unsolved.  Each
    curve reports, at ratio tau, the fraction of problems solved within tau
    times the cheapest method's cost.  With the restriction flag, problems
    not solved by every method are dropped first (profiles then measure
    efficiency only).
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
        raise ValueError("t must be a nonempty 2-D matrix")
    if np.any(t <= 0.0) or np.any(np.isnan(t)):
        raise ValueError("costs must be positive (or +inf for unsolved)")
    if methods is None:
        methods = [f"m{i + 1}" for i in range(t.shape[0])]
    elif len(methods) != t.shape[0]:
        raise ValueError("one method name per matrix row required")

    if restrict_to_solved_by_all:
        keep = np.isfinite(t).all(axis=0)
        t = t[:, keep]
        if t.shape[1] == 0:
            raise ValueError("no problem was solved by every method")
    n_p = t.shape[1]

    col_min = t.min(axis=0)
    with np.errstate(invalid="ignore"):
        ratios = t / col_min
    ratios[~np.isfinite(t)] = math.inf

    finite = ratios[np.isfinite(ratios)]
    taus = np.unique(finite) if finite.size else np.array([1.0])
    curves = []
    for i, name in enumerate(methods):
        row = np.sort(ratios[i][np.isfinite(ratios[i])])
        counts = np.searchsorted(row, taus, side="right")
        curves.append(ProfileCurve(name, taus.copy(), counts / n_p))
    return curves


def write_records_csv(records: Sequence[BenchRecord], path) -> None:
    """Write records to CSV with header problem,n,solver,normF,iter,feval,time,solved."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow([r.problem, r.n, r.solver, repr(float(r.normF_final)),
                             r.iter, r.feval, repr(float(r.time_seconds)),
                             "true" if r.solved else "false"])


def read_records_csv(path) -> list[BenchRecord]:
    """Read records written by write_records_csv.  Another header, a row
    with another number of fields, or a malformed field is a ValueError
    naming the file (and the line, and the column of a field)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != RECORD_FIELDS:
            raise ValueError(f"{path}: header {','.join(header)!r}, "
                             f"not {','.join(RECORD_FIELDS)!r}")
        for row in filter(None, reader):  # blank rows hold no record
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            values = []
            for (column, (read, kind)), text in zip(_COLUMN_READERS.items(), row):
                try:
                    values.append(read(text))
                except ValueError:
                    raise ValueError(f"{path}, line {reader.line_num}: {column} is "
                                     f"{text!r}, not {kind}") from None
            records.append(BenchRecord(*values))
    return records


def write_profile(curves: Sequence[ProfileCurve], path_csv,
                  path_svg=None) -> None:
    """Write profile curves as CSV (method,tau,gamma) and optionally as SVG."""
    if not curves:
        raise ValueError("no curves to write")
    with open(path_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "tau", "gamma"])
        for c in curves:
            for tau, gamma in zip(c.taus, c.gammas):
                writer.writerow([c.method, repr(float(tau)), repr(float(gamma))])
    if path_svg is not None:
        Path(path_svg).write_text(profile_svg(curves))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def profile_svg(curves: Sequence[ProfileCurve]) -> str:
    """Render curves as a 720 x 480 staircase plot with a log-scaled tau axis."""
    width, height = 720, 480
    ml, mr, mt, mb = 60, 24, 24, 48
    tau_max = 1.0
    for c in curves:
        if c.taus.size:
            tau_max = max(tau_max, float(c.taus[-1]))
    decades = max(1, math.ceil(math.log10(tau_max)))
    span = float(decades)

    def sx(tau: float) -> float:
        return ml + (width - ml - mr) * (math.log10(max(tau, 1.0)) / span)

    def sy(gamma: float) -> float:
        return mt + (height - mt - mb) * (1.0 - gamma)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="black"/>',
    ]
    for d in range(decades + 1):
        x = sx(10.0 ** d)
        parts.append(f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" '
                     f'y2="{height - mb}" stroke="#cccccc"/>')
        label = "1" if d == 0 else f"1e{d}"
        parts.append(f'<text x="{x:.1f}" y="{height - mb + 16}" '
                     f'text-anchor="middle" font-size="12">{label}</text>')
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(g)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{width - mr}" '
                     f'y2="{y:.1f}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="12">{g:g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle" font-size="13">tau</text>')

    for idx, c in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        if c.taus.size:
            pieces = [f"M {sx(float(c.taus[0])):.2f} {sy(float(c.gammas[0])):.2f}"]
            for tau, gamma in zip(c.taus[1:], c.gammas[1:]):
                pieces.append(f"H {sx(float(tau)):.2f}")
                pieces.append(f"V {sy(float(gamma)):.2f}")
            pieces.append(f"H {width - mr}")
            path = " ".join(pieces)
        else:
            path = f"M {ml} {sy(0.0):.2f} H {width - mr}"
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        ly = mt + 18 + 16 * idx
        parts.append(f'<line x1="{ml + 10}" y1="{ly - 4}" x2="{ml + 34}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        # xml.sax.saxutils.escape, written out: importing that module pulls
        # urllib.request and http.client into every `import dfsane`
        label = c.method.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{ml + 40}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
