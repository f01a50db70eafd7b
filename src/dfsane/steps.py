"""Per-iteration scalar schedules: the spectral coefficient and the forcing term."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Array, SolverConfig, norm2


@dataclass(frozen=True)
class EtaSchedule:
    """Summable forcing sequence eta_k = 2^-k * eta0 with
    eta0 = min(||F(x0)||/2, sqrt(||F(x0)||))."""

    eta0: float

    @classmethod
    def from_initial_residual(cls, norm_f0: float) -> "EtaSchedule":
        return cls(min(0.5 * norm_f0, math.sqrt(norm_f0)))

    def eta(self, k: int) -> float:
        return math.ldexp(self.eta0, -k)


def sigma_k(prev_x: Array | None, prev_F: Array | None, x: Array, F: Array,
            cfg: SolverConfig) -> float:
    """Safeguarded spectral step coefficient.

    ``prev_x`` and ``prev_F`` are the previous iterate and its residual,
    both None at the first iteration.  When they are given, the spectral
    value s's / s'y (with s = x - prev_x, y = F - prev_F) is returned
    unchanged whenever
    |sigma| lies in [sigma_min, min(1, sigma_max)].  Otherwise, and always
    at the first iteration, the fallback max(sigma_min,
    min(||x|| / ||F||, sigma_max)) is used, with ||x|| replaced by 1 when
    the current point is the origin.
    """
    if prev_x is not None:
        s = x - prev_x
        y = F - prev_F
        sty = float(s @ y)
        if sty != 0.0:
            sigma_spg = float(s @ s) / sty
            if cfg.sigma_min <= abs(sigma_spg) <= min(1.0, cfg.sigma_max):
                return sigma_spg
    rho = norm2(x)
    if rho == 0.0:
        rho = 1.0
    return max(cfg.sigma_min, min(rho / norm2(F), cfg.sigma_max))
