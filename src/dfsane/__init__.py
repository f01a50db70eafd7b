"""Derivative-free spectral residual solver for square nonlinear systems
F(x) = 0, with sequential-secant acceleration, a built-in problem suite,
and a benchmark harness with performance profiles."""

from .accel import SecantWindow, accel_point
from .bench import (
    BenchRecord,
    ProfileCurve,
    perf_profile,
    read_records_csv,
    records_to_matrix,
    run_suite,
    write_profile,
    write_records_csv,
)
from .core import (
    BreakdownError,
    BudgetExhausted,
    CountedEvaluator,
    Problem,
    SolveReport,
    SolverConfig,
)
from .problems import available, make, suite_builtin
from .solver import IterationRecord, solve

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BreakdownError",
    "BudgetExhausted",
    "CountedEvaluator",
    "IterationRecord",
    "Problem",
    "ProfileCurve",
    "SecantWindow",
    "SolveReport",
    "SolverConfig",
    "accel_point",
    "available",
    "make",
    "perf_profile",
    "read_records_csv",
    "records_to_matrix",
    "run_suite",
    "solve",
    "suite_builtin",
    "write_profile",
    "write_records_csv",
    "__version__",
]
