"""Per-iteration scalar schedules: the spectral coefficient and the forcing term."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_MACH, Array

# Safeguards of the spectral coefficient (La Cruz, Martinez & Raydan, 2006).
SIGMA_MIN = math.sqrt(EPS_MACH)
SIGMA_MAX = 1.0 / math.sqrt(EPS_MACH)


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


def sigma_k(prev_x: Array | None, prev_F: Array | None, x: Array,
            F: Array) -> float:
    """Safeguarded spectral step coefficient.

    ``prev_x`` and ``prev_F`` are the previous iterate and its residual,
    both None at the first iteration.  When they are given, the spectral
    value s's / s'y (with s = x - prev_x, y = F - prev_F) is returned
    unchanged whenever |sigma| lies in [SIGMA_MIN, 1] (SIGMA_MAX > 1).
    Otherwise, and always at the first iteration, the fallback
    max(SIGMA_MIN, min(||x|| / ||F||, SIGMA_MAX)) is used, with ||x||
    replaced by 1 when the current point is the origin.
    """
    if prev_x is not None:
        s = x - prev_x
        y = F - prev_F
        sty = float(s @ y)
        if sty != 0.0:
            sigma_spg = float(s @ s) / sty
            if SIGMA_MIN <= abs(sigma_spg) <= 1.0:
                return sigma_spg
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        rho = 1.0
    return max(SIGMA_MIN, min(rho / float(np.linalg.norm(F)), SIGMA_MAX))
