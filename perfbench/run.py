"""Benchmark of the dfsane package, driven through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One pass runs every solve of
the workload through ``run_suite`` (closed loop: one solve at a time, one
process) and then the profile pipeline on its records.  Passes repeat until
the next one would end after ``--seconds`` (at least three of them).

``--trace 0`` reports the end-to-end metrics with no tracing wrapper installed.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced ones (see ``tracing.py``) and runs the kernel
microbench (``kernelbench.py``).  Every solve's output is checked in both
modes.  Details go to ``perfbench/out/``; the last line of standard output
is the JSON result.

This module imports only the standard library at the top, so that a set-up
probe (a fresh process running this file with ``--setup-probe``) times the
import of dfsane and numpy itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread (nproc is 2 on the reference machine): one solve at a
# time on one core keeps repeated passes comparable on a shared host.  Set
# before numpy is first imported; the set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_package() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "dfsane" / "__init__.py").is_file():
        sys.exit(f"no dfsane package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import dfsane and build the workload's problems, in this
    fresh process."""
    t0 = perf_counter()
    import workloads
    workloads.build(workload, seed)
    return perf_counter() - t0


def setup_prober(workload: str, seed: int):
    """A function returning the set-up seconds of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    return lambda: float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                        timeout=120, cwd=ROOT).stdout)


def summary(times: list[float]) -> str:
    if len(times) < 2:
        return f"n={len(times)} " + " ".join(f"{t:.3f}" for t in times)
    q1, _, q3 = quantiles(times, n=4)
    return f"n={len(times)} median={median(times):.3f} q1={q1:.3f} q3={q3:.3f}"


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_package()
    if args.setup_probe:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r} "
                 f"(known: {', '.join(workloads.WORKLOADS)})")
    import dfsane
    import harness
    if Path(dfsane.__file__).resolve().parent != SRC / "dfsane":
        sys.exit(f"imported dfsane from {dfsane.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    bench = harness.Bench(workloads.WORKLOADS[args.workload], args.seed, OUT)
    if args.trace:
        metrics = bench.traced_run(args.seconds)
    else:
        metrics = bench.untraced_run(args.seconds, setup_prober(args.workload, args.seed),
                                     SETUP_PROBES)

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed_solves,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    workload = bench.workload
    detail = {"workload": {"name": workload.name, "modes": workload.modes,
                           "why": workload.why, "seeds": workload.seeds},
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": harness.machine_facts(BLAS_THREADS),
              "pass_seconds": bench.pass_seconds, "setup_seconds": bench.setup_seconds,
              "solves": bench.table, "solves_from_perturbed_x0": bench.perturbed,
              "spans": {name: vars(st) for name, st in bench.span_stats.items()},
              "failures": bench.failures, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"workload {workload.name} seed {args.seed}: {workload.seeds}")
    print(f"machine: {json.dumps(detail['machine'])}")
    print(harness.format_table(bench.table))
    if bench.perturbed:
        print(f"from start points perturbed with seed {args.seed}:")
        print(harness.format_table(bench.perturbed))
    if bench.span_stats:
        print(harness.format_spans(bench.span_stats))
    for kind, times in bench.pass_seconds.items():
        if times:
            print(f"{kind} pass seconds: {summary(times)}")
    if bench.setup_seconds:
        print(f"setup seconds: {summary(bench.setup_seconds)}")
    for line in bench.failures:
        print(f"CHECK FAILED: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
