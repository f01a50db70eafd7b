"""The package layers that the benchmark in ``perfbench/`` reaches into.

``perfbench/tracing.py`` times each layer by swapping wrappers into the
module attributes the solver calls through, and ``perfbench/kernelbench.py``
drives the acceleration kernel directly.  Both are loaded here from their
files, unchanged, so that a refactor which renames or bypasses a traced
layer fails this suite and not only the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dfsane.core import SolverConfig
from dfsane.problems import make
from dfsane.solver import solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_records_spans(monkeypatch):
    tracing = load("tracing", monkeypatch)
    tracer = tracing.Tracer()
    problem, = tracing.traced_problems([make("broyden-tri", 50)], tracer)
    with tracing.patched(tracer):
        rep = solve(problem, SolverConfig(mode="accelerated"))
    assert rep.istop == 0
    stats = tracer.stats()
    for _, _, span in tracing.PATCH_POINTS:
        assert stats.get(span, tracing.SpanStats()).calls >= 1, span
    assert stats["core.evaluate"].calls == stats["problems.residual"].calls == rep.fcnt
    # patched() restores the originals: an untraced solve records nothing
    before = len(tracer.names)
    solve(make("broyden-tri", 50), SolverConfig(mode="accelerated"))
    assert len(tracer.names) == before


def test_kernel_microbench_runs_at_small_n(monkeypatch):
    kernelbench = load("kernelbench", monkeypatch)
    monkeypatch.setattr(kernelbench, "SIZES", {"n10": 10})
    monkeypatch.setattr(kernelbench, "SECONDS_PER_CASE", 0.0)
    metrics, failures = kernelbench.run(seed=0)
    assert failures == []
    assert sorted(metrics) == ["accel.kernel.n10.m2.ms_per_call",
                               "accel.kernel.n10.m6.computed_GBps",
                               "accel.kernel.n10.m6.ms_per_call"]


def test_kernel_microbench_runs_above_block_rows(monkeypatch):
    # n = 1e5 takes the window's factored layout, so the microbench's lstsq
    # reference check (matrices_with after accel_point) covers it.
    kernelbench = load("kernelbench", monkeypatch)
    monkeypatch.setattr(kernelbench, "SIZES", {"n1e5": 100_000})
    monkeypatch.setattr(kernelbench, "SECONDS_PER_CASE", 0.0)
    metrics, failures = kernelbench.run(seed=0)
    assert failures == []
    assert sorted(metrics) == ["accel.kernel.n1e5.m2.ms_per_call",
                               "accel.kernel.n1e5.m6.computed_GBps",
                               "accel.kernel.n1e5.m6.ms_per_call"]
