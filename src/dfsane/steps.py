"""The safeguarded spectral step coefficient."""

from __future__ import annotations

import math

from .core import EPS_MACH, Array

# Safeguards of the spectral coefficient (La Cruz, Martinez & Raydan, 2006).
SIGMA_MIN = math.sqrt(EPS_MACH)
SIGMA_MAX = 1.0 / math.sqrt(EPS_MACH)


def sigma_k(pair: tuple[float, float] | None, x: Array, F: Array) -> float:
    """Safeguarded spectral step coefficient.

    ``pair`` is (s'y, s's) for the newest secant pair, the differences s
    and y of the current iterate and its residual from the previous ones,
    None at the first iteration.  When it is given, the spectral value
    s's / s'y is returned unchanged whenever |sigma| lies in [SIGMA_MIN, 1]
    (SIGMA_MAX > 1).  Otherwise, and always at the first iteration, the
    fallback max(SIGMA_MIN, min(||x|| / ||F||, SIGMA_MAX)) is used, with
    ||x|| replaced by 1 when the current point is the origin.

    ``x`` and ``F`` are 1-D float64 ndarrays of one length.  Each norm is
    ``math.sqrt(v.dot(v))``: for a contiguous vector that is what
    ``np.linalg.norm`` computes, bit for bit, at less cost per call.
    (``np.linalg.norm`` first copies a strided vector into contiguous
    memory, and BLAS may then sum in another order.)
    """
    sty, sts = pair or (0.0, 0.0)  # s'y = 0 takes the fallback too
    if sty != 0.0:
        sigma_spg = sts / sty
        if SIGMA_MIN <= abs(sigma_spg) <= 1.0:
            return sigma_spg
    rho = math.sqrt(x.dot(x))
    if rho == 0.0:
        rho = 1.0
    return max(SIGMA_MIN, min(rho / math.sqrt(F.dot(F)), SIGMA_MAX))
