"""The safeguarded spectral step coefficient."""

from __future__ import annotations

import math

import numpy as np

from .core import EPS_MACH, Array

# Safeguards of the spectral coefficient (La Cruz, Martinez & Raydan, 2006).
SIGMA_MIN = math.sqrt(EPS_MACH)
SIGMA_MAX = 1.0 / math.sqrt(EPS_MACH)


def sigma_k(s: Array | None, y: Array | None, x: Array, F: Array) -> float:
    """Safeguarded spectral step coefficient.

    ``s`` and ``y`` are the newest secant pair, the differences of the
    current iterate and its residual from the previous ones, both None at
    the first iteration.  When they are given, the spectral value s's / s'y
    is returned unchanged whenever |sigma| lies in [SIGMA_MIN, 1]
    (SIGMA_MAX > 1).  Otherwise, and always at the first iteration, the
    fallback max(SIGMA_MIN, min(||x|| / ||F||, SIGMA_MAX)) is used, with
    ||x|| replaced by 1 when the current point is the origin.
    """
    if s is not None:
        sty = float(s @ y)
        if sty != 0.0:
            sigma_spg = float(s @ s) / sty
            if SIGMA_MIN <= abs(sigma_spg) <= 1.0:
                return sigma_spg
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        rho = 1.0
    return max(SIGMA_MIN, min(rho / float(np.linalg.norm(F)), SIGMA_MAX))
