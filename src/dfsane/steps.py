"""The safeguarded spectral step coefficient."""

from __future__ import annotations

import math

from .core import BLOCK_ROWS, EPS_MACH, Array

# Safeguards of the spectral coefficient (La Cruz, Martinez & Raydan, 2006).
SIGMA_MIN = math.sqrt(EPS_MACH)
SIGMA_MAX = 1.0 / math.sqrt(EPS_MACH)
# Upper bound on |s's / s'y| for the spectral value to be taken.  La Cruz,
# Martinez & Raydan (2006) and SciPy's df-sane accept it up to SIGMA_MAX;
# this bound was in the package's first version with no source given.  It
# may come from Birgin & Martinez (SIAM J. Numer. Anal., 2022), unchecked.
SIGMA_SPG_MAX = 1.0


def sigma_k(pair: tuple[float, float] | None, x: Array, f: float) -> float:
    """Safeguarded spectral step coefficient.

    ``pair`` is (s'y, s's) for the newest secant pair, the differences s
    and y of the current iterate and its residual from the previous ones,
    None at the first iteration.  When it is given, the spectral value
    s's / s'y is returned unchanged whenever |sigma| lies in [SIGMA_MIN,
    SIGMA_SPG_MAX] (SIGMA_SPG_MAX = 1 < SIGMA_MAX).  Otherwise, and always
    at the first iteration, the fallback max(SIGMA_MIN, min(||x|| / ||F||,
    SIGMA_MAX)) is used, with ||x|| replaced by 1 when the current point is
    the origin.

    ``x`` is the current iterate, a 1-D float64 ndarray, and ``f`` its
    finite merit value ``F.dot(F)``, so ||F|| is ``math.sqrt(f)``.  ||x||
    is ``math.sqrt(x.dot(x))``: for a contiguous vector that is what
    ``np.linalg.norm`` computes, bit for bit, at less cost per call.
    (``np.linalg.norm`` first copies a strided vector into contiguous
    memory, and BLAS may then sum in another order.)
    """
    sty, sts = pair or (0.0, 0.0)  # s'y = 0 takes the fallback too
    if sty != 0.0:
        sigma_spg = sts / sty
        if SIGMA_MIN <= abs(sigma_spg) <= SIGMA_SPG_MAX:
            return sigma_spg
    rho = math.sqrt(x.dot(x))
    if rho == 0.0:
        rho = 1.0
    return max(SIGMA_MIN, min(rho / math.sqrt(f), SIGMA_MAX))


def secant_pair(x_new: Array, x: Array, F_new: Array, F: Array) -> tuple[float, float]:
    """(s'y, s's) with s = x_new - x and y = F_new - F, as Python floats,
    summed over blocks of BLOCK_ROWS rows in block order, so that no
    n-vector is formed; at n <= BLOCK_ROWS that is one block and the bits
    of ``s.dot(y)`` and ``s.dot(s)``.
    """
    sty = sts = -0.0  # adds to any value, -0.0 included, without changing it
    for i in range(0, x.shape[0], BLOCK_ROWS):
        j = i + BLOCK_ROWS
        s = x_new[i:j] - x[i:j]
        sty += float(s.dot(F_new[i:j] - F[i:j]))
        sts += float(s.dot(s))
    return sty, sts
