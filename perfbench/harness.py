"""Passes, output checks and metrics.  ``run.py`` is the entry point."""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import resource
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import dfsane.bench
from dfsane import (BenchRecord, Problem, SolveReport, SolverConfig, perf_profile,
                    read_records_csv, records_to_matrix, run_suite, write_profile,
                    write_records_csv)

import kernelbench
import workloads
from tracing import SpanStats, Tracer, patched, traced_problems

MIN_PASSES = 3


@dataclass
class Solved:
    """What ``solve`` returned for one problem x mode, as ``run_suite`` called it."""

    problem: Problem
    cfg: SolverConfig
    report: SolveReport
    iterations: list | None


@dataclass
class Pass:
    seconds: float
    records: list[BenchRecord]
    records_read_back: list[BenchRecord]
    curves: list
    solved: list[Solved]


@contextmanager
def keeping_reports(sink: list[Solved], solve_fn, with_iterations: bool):
    """Let ``run_suite`` call ``solve_fn`` and keep every report it returns.

    ``run_suite`` returns records without the final point, which the output
    checks need.  This pass-through costs one append per solve and is
    installed in traced and untraced passes alike; holding the reports until
    the pass ends adds the final x and F of earlier solves to peak RSS.
    """
    original = dfsane.bench.solve

    def keep(problem, cfg):
        iterations = [] if with_iterations else None
        report = solve_fn(problem, cfg, trace=iterations)
        sink.append(Solved(problem, cfg, report, iterations))
        return report

    dfsane.bench.solve = keep
    try:
        yield
    finally:
        dfsane.bench.solve = original


def _no_span(name, fn):
    return fn


def profile_pipeline(records, stem: Path, wrap=_no_span):
    """Records -> CSV -> records -> cost matrix -> profiles -> CSV and SVG,
    each call wrapped by ``wrap``."""
    csv_path = stem.with_suffix(".records.csv")
    wrap("bench.write_records_csv", write_records_csv)(records, csv_path)
    back = wrap("bench.read_records_csv", read_records_csv)(csv_path)
    methods, _, t = wrap("bench.records_to_matrix", records_to_matrix)(back, "feval")
    curves = wrap("bench.perf_profile", perf_profile)(t, methods=methods)
    wrap("bench.write_profile", write_profile)(
        curves, stem.with_suffix(".profile.csv"), stem.with_suffix(".profile.svg"))
    return back, curves


def repeat(step, seconds: float, at_least: int) -> None:
    """Call ``step`` at least ``at_least`` times, then again while one more
    call (at the median duration so far) would end within ``seconds``."""
    began = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if len(durations) >= at_least and \
                perf_counter() - began + median(durations) > seconds:
            return


class Bench:
    """One workload at one seed: runs passes, checks them, and accumulates
    attempted / failed / solved counts and the per-solve table."""

    def __init__(self, workload: workloads.Workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.stem = out / workload.name
        self.configs = workload.solver_configs()
        self.problems = workloads.build(workload.name, seed)
        self.originals = {p.name: p for p in self.problems}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed_solves = 0
        self.solved_solves = 0
        self.table: list[dict] = []
        self.pass_seconds: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.span_stats: dict[str, SpanStats] = {}  # of the last traced pass
        self.perturbed: list[dict] = []
        self.setup_seconds: list[float] = []

    def one_pass(self, tracer: Tracer | None = None) -> Pass:
        wrap = _no_span if tracer is None else tracer.wrap
        problems = self.problems if tracer is None else traced_problems(self.problems, tracer)
        solved: list[Solved] = []
        gc.collect()
        with (nullcontext() if tracer is None else patched(tracer)), \
                keeping_reports(solved, wrap("solver.solve", dfsane.bench.solve),
                                with_iterations=tracer is not None):
            t0 = perf_counter()
            records = wrap("bench.run_suite", run_suite)(problems, self.configs)
            back, curves = wrap("bench.profile_pipeline", profile_pipeline)(
                records, self.stem, wrap)
            seconds = perf_counter() - t0
        result = Pass(seconds, records, back, curves, solved)
        self.pass_seconds["untraced" if tracer is None else "traced"].append(seconds)
        self.check(result)
        return result

    # -- output checks ------------------------------------------------------

    def check(self, p: Pass) -> None:
        """Check every solve of a pass and the pass as a whole."""
        table = self.check_solves(p.records, p.solved)
        if p.records_read_back != p.records:
            self.failures.append("records read back from CSV differ from those written")
        for c in p.curves:
            g, taus = c.gammas, c.taus
            if not (((g >= 0.0) & (g <= 1.0)).all() and (g[1:] >= g[:-1]).all()
                    and (taus[1:] > taus[:-1]).all() and (taus >= 1.0).all()):
                self.failures.append(f"profile curve {c.method} is not a nondecreasing "
                                     f"step function in [0, 1] over tau >= 1")
        if not self.table:
            self.table = table
        elif [_counts(r) for r in table] != [_counts(r) for r in self.table]:
            self.failures.append("iter/fcnt/istop differ between passes of the same inputs")

    def check_solves(self, records: list[BenchRecord], solved: list[Solved]) -> list[dict]:
        """Check each solve (one that fails any check counts as failed) and
        return the per-solve table."""
        if len(solved) != len(records):
            self.failures.append(f"{len(records)} records but {len(solved)} reports "
                                 f"(a solve raised)")
        table = []
        for rec, kept in zip(records, solved + [None] * len(records)):
            self.attempted += 1
            found = self.solve_failures(rec, kept)
            if found:
                self.failed_solves += 1
                self.failures.extend(f"{rec.problem} {rec.solver}: {m}" for m in found)
            elif rec.solved:
                self.solved_solves += 1
            table.append({"problem": rec.problem, "n": rec.n, "mode": rec.solver,
                          "iter": rec.iter, "fcnt": rec.feval,
                          "istop": kept.report.istop if kept else None,
                          "F_norm": rec.normF_final,
                          "F_norm_sq": kept.report.normF if kept else None,
                          "solved": rec.solved})
        return table

    def perturbed_table(self) -> list[dict]:
        """Solve once more, untimed, from start points perturbed with this
        seed as ``workloads.perturbed`` does.  For a workload that keeps its
        registered start points at every seed, this table shows whether a
        solve's status flips under a 1% change of x0."""
        rng = np.random.default_rng(self.seed)
        problems = [workloads.perturbed(p, rng) for p in self.workload.make_problems()]
        solved: list[Solved] = []
        with keeping_reports(solved, dfsane.bench.solve, with_iterations=False):
            records = run_suite(problems, self.configs)
        return self.check_solves(records, solved)

    def solve_failures(self, rec: BenchRecord, kept: Solved | None) -> list[str]:
        if kept is None:
            return ["no report"]
        rep, epsf = kept.report, kept.cfg.epsf
        out = []
        if kept.problem.name != rec.problem or kept.cfg.mode != rec.solver:
            out.append(f"report belongs to {kept.problem.name} {kept.cfg.mode}")
        F = self.originals[rec.problem].residual(rep.x)
        if not np.array_equal(F, rep.res, equal_nan=True):
            out.append("res differs from residual(x)")
        finite = bool(np.isfinite(rep.res).all())
        if rep.normF != (float(rep.res @ rep.res) if finite else math.inf):
            out.append("normF (||F||^2) differs from res @ res")
        norm = math.sqrt(rep.normF)
        if rep.istop == 0 and not norm <= epsf:
            out.append("istop 0 with ||F|| above epsf")
        if (rec.feval, rec.iter, rec.solved) != (rep.fcnt, rep.iter, norm <= epsf) \
                or not (rec.normF_final == norm or math.isnan(norm)):
            out.append("record disagrees with the report")
        return out

    # -- runs ---------------------------------------------------------------

    def untraced_run(self, seconds: float, probe_setup, min_probes: int) -> dict:
        """End-to-end metrics: name -> (value, unit).

        ``probe_setup`` times set-up in a fresh process.  One probe runs
        before each pass (topped up to ``min_probes``), so that the probes
        sample the whole run rather than one moment of a host whose speed
        drifts.
        """
        def probe_then_pass():
            self.setup_seconds.append(probe_setup())
            self.one_pass()

        repeat(probe_then_pass, seconds, MIN_PASSES)
        while len(self.setup_seconds) < min_probes:
            self.setup_seconds.append(probe_setup())
        return {
            "time_to_solution_s": (median(self.pass_seconds["untraced"]), "s"),
            "fevals": (sum(row["fcnt"] for row in self.table), "count"),
            "solved_frac": (self.solved_solves / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (median(self.setup_seconds), "s"),
        }

    def traced_run(self, seconds: float) -> dict:
        """Per-layer metrics (medians over traced passes): name -> (value, unit)."""
        layers: list[dict] = []

        def untraced_then_traced():
            self.one_pass()
            tracer = Tracer()
            layers.append(layer_metrics(tracer, self.one_pass(tracer)))
            self.span_stats = tracer.stats()

        # The first pass in a process runs slower (its memory is fresh from
        # the OS); leave it out of the traced/untraced comparison.
        self.one_pass()
        self.pass_seconds["untraced"].clear()
        repeat(untraced_then_traced, seconds, 1)
        metrics = {name: (median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        untraced = median(self.pass_seconds["untraced"])
        metrics["trace.overhead_frac"] = (
            (median(self.pass_seconds["traced"]) - untraced) / untraced, "ratio")
        if not self.workload.perturb_x0:
            self.perturbed = self.perturbed_table()
        kernel, failures = kernelbench.run(self.seed)
        self.failures.extend(failures)
        metrics.update(kernel)
        return metrics


def _counts(row: dict) -> tuple:
    return row["problem"], row["mode"], row["iter"], row["fcnt"], row["istop"]


def _per_call(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    stats = tracer.stats()

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    residual, evaluate = get("problems.residual"), get("core.evaluate")
    ls, accel = get("linesearch.double_backtracking"), get("accel.accel_point")
    iterations = [it for s in p.solved for it in s.iterations]
    accel_iterations = [it for s in p.solved if s.cfg.mode == "accelerated"
                        for it in s.iterations]
    overshoot = sum(s.report.fcnt - s.cfg.max_feval for s in p.solved
                    if s.report.fcnt >= s.cfg.max_feval)
    return {
        "problems.residual.calls": (residual.calls, "count"),
        "problems.residual.s": (residual.total_s, "s"),
        "core.evaluate.self_s": (evaluate.self_s, "s"),
        "core.evaluate.us_per_call": (_per_call(evaluate.self_s, evaluate.calls) * 1e6, "us"),
        "core.feval_cap_overshoot": (overshoot, "count"),
        "linesearch.double_backtracking.calls": (ls.calls, "count"),
        "linesearch.double_backtracking.self_s": (ls.self_s, "s"),
        "linesearch.probes_per_step": (
            _per_call(sum(it.ls_evals for it in iterations), len(iterations)), "count"),
        "steps.sigma_k.s": (get("steps.sigma_k").total_s, "s"),
        "accel.accel_point.calls": (accel.calls, "count"),
        "accel.accel_point.s": (accel.total_s, "s"),
        "accel.accel_point.ms_per_call": (_per_call(accel.total_s, accel.calls) * 1e3, "ms"),
        "accel.accept_ratio": (_per_call(sum(it.accepted == "accel" for it in accel_iterations),
                                         len(accel_iterations)), "ratio"),
        "solver.self_s": (get("solver.solve").self_s, "s"),
        "solver.iters": (sum(s.report.iter for s in p.solved), "count"),
        "bench.run_suite.overhead_s": (get("bench.run_suite").self_s, "s"),
        "bench.profile_pipeline_s": (get("bench.profile_pipeline").total_s, "s"),
        "trace.pass_s": (p.seconds, "s"),
    }


def machine_facts(blas_threads_requested: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": openblas_threads() or blas_threads_requested,
            "llc_bytes": last_level_cache_bytes()}


def last_level_cache_bytes() -> int | None:
    """Size of cpu0's highest-level cache as Linux sysfs reports it."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        if best is None or level > best[0]:
            best = (level, int(size.rstrip("KM")) * scale)
    return None if best is None else best[1]


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def format_table(rows: list[dict]) -> str:
    """Per-solve table.  ||F|| is the 2-norm (the CSV's normF column);
    ||F||^2 is SolveReport.normF."""
    lines = [f"{'problem':<16} {'n':>8} {'mode':<12} {'iter':>7} {'fcnt':>7} {'istop':>5} "
             f"{'||F||':>11} {'||F||^2':>11} solved"]
    for r in rows:
        sq = math.nan if r["F_norm_sq"] is None else r["F_norm_sq"]
        lines.append(f"{r['problem']:<16} {r['n']:>8} {r['mode']:<12} {r['iter']:>7} "
                     f"{r['fcnt']:>7} {r['istop']!s:>5} {r['F_norm']:>11.3e} {sq:>11.3e} "
                     f"{r['solved']}")
    return "\n".join(lines)


def format_spans(stats: dict[str, SpanStats]) -> str:
    """Calls, total and self seconds per span name."""
    lines = [f"{'span':<36} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].total_s):
        lines.append(f"{name:<36} {st.calls:>8} {st.total_s:>10.4f} {st.self_s:>10.4f}")
    return "\n".join(lines)
