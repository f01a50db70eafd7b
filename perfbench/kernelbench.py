"""Acceleration-kernel microbench: ``accel_point`` called directly on seeded
random windows.

Bytes are the *computed* minimum traffic of one call, (2m + 2) * 8n: S and Y
(n x m each), x_trial and F_trial read once.  They ignore cache misses and
temporaries, so the rate is a computed figure, not a measured bandwidth, and
no bandwidth ratio is claimed from it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from dfsane import SecantWindow, accel_point

SIZES = {"n10": 10, "n1e3": 1_000, "n1e5": 100_000, "n1e6": 1_000_000}
COLUMNS = (2, 6)
MIN_CALLS = 3
SECONDS_PER_CASE = 0.25
# Random Gaussian windows have full column rank with overwhelming
# probability, so the kernel must match an SVD least-squares solve closely.
RTOL = 1e-8


def computed_bytes(n: int, m: int) -> int:
    return (2 * m + 2) * 8 * n


def run(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics (name -> (value, unit)) for every (n, m) case, and
    a list of check failures."""
    rng = np.random.default_rng(seed)
    metrics: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    for label, n in SIZES.items():
        for m in COLUMNS:
            window = SecantWindow(max(COLUMNS) - 1)
            for _ in range(m - 1):
                window.push_pair(rng.standard_normal(n), rng.standard_normal(n))
            s, y, x, F = (rng.standard_normal(n) for _ in range(4))

            times = []
            began = perf_counter()
            while len(times) < MIN_CALLS or perf_counter() - began < SECONDS_PER_CASE:
                t0 = perf_counter()
                out = accel_point(window, s, y, x, F)
                times.append(perf_counter() - t0)
            per_call = median(times)

            S, Y = window.matrices_with(s, y)
            step = S @ np.linalg.lstsq(Y, F, rcond=None)[0]
            err = float(np.linalg.norm(out - (x - step)))
            if not err <= RTOL * float(np.linalg.norm(step)):
                failures.append(f"accel_point {label} m{m}: off the lstsq reference by {err!r}")

            metrics[f"accel.kernel.{label}.m{m}.ms_per_call"] = (per_call * 1e3, "ms")
            if m == max(COLUMNS):
                metrics[f"accel.kernel.{label}.m{m}.computed_GBps"] = (
                    computed_bytes(n, m) / per_call / 1e9, "GB/s")
    return metrics, failures
