"""Spans recorded from outside the package, around the calls into each layer.

``Tracer.wrap`` returns a function that records one span per call: the span
name, its parent (the innermost span open when it started) and its start and
end on ``time.perf_counter``.  ``patched`` swaps the wrappers into the
module attributes the solver calls through and restores the originals on
exit, so an untraced pass never runs a wrapper.  The residual is wrapped per
problem (``traced_problems``), because it is a field of each ``Problem``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter

import dfsane.core
import dfsane.solver

# (owner, attribute, span name) of every call site the solver looks up at
# run time.  ``solver.py`` imports these functions by name, so the solver
# module's attributes are the ones to replace.
PATCH_POINTS = (
    (dfsane.solver, "double_backtracking", "linesearch.double_backtracking"),
    (dfsane.solver, "accel_point", "accel.accel_point"),
    (dfsane.solver, "sigma_k", "steps.sigma_k"),
    (dfsane.core.CountedEvaluator, "evaluate", "core.evaluate"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span store; spans are aggregated by ``stats`` at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()

        return traced

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        in_children = [0.0] * len(durations)
        for d, parent in zip(durations, self.parents):
            if parent >= 0:
                in_children[parent] += d
        out: dict[str, SpanStats] = {}
        for name, d, c in zip(self.names, durations, in_children):
            s = out.setdefault(name, SpanStats())
            s.calls += 1
            s.total_s += d
            s.self_s += d - c
        return out


@contextmanager
def patched(tracer: Tracer):
    """Route the solver's calls into each layer through ``tracer``."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCH_POINTS]
    try:
        for (owner, attr, span), (_, _, fn) in zip(PATCH_POINTS, originals):
            setattr(owner, attr, tracer.wrap(span, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def traced_problems(problems, tracer: Tracer):
    """Copies of ``problems`` whose residual records a ``problems.residual`` span."""
    return [replace(p, residual=tracer.wrap("problems.residual", p.residual))
            for p in problems]
