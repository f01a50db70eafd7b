"""Sequential-secant acceleration: sliding difference window and the
minimum-norm least-squares extrapolation step.

The accelerated point is x_trial - S nu where nu is the minimum-norm
least-squares solution of Y nu = F(x_trial), with S and Y collecting the
recent iterate and residual differences plus the trial pair.  Up to
``BLOCK_ROWS`` rows nu comes from one ``np.linalg.lstsq`` call (LAPACK's
SVD-based solver, ``rcond=None``), whose numerical rank counts the singular
values above ``eps * max(n, m) * sigma_max``.  Above that the augmented
matrix [Y b] is reduced by a blocked tall-skinny QR in one pass over memory
(Demmel et al., SIAM J. Sci. Comput. 34, 2012): each block of rows is
factored on its own, and ``lstsq`` solves the small problem on the stacked
R factors, whose first m columns have the singular values of Y, with the
same rank rule.

Layout.  The window keeps S and Y as preallocated row-major (p + 1) x n
arrays, one row per pair, so nothing is restacked per call: pairs fill a
ring of p rows and the trial pair goes into the row after them.  The n x m
matrices are transposed (Fortran-ordered) views of the first m rows.  Rows
are in ring order, not in age order; the solution is invariant (in exact
arithmetic) under a common column permutation of S and Y.  A kept trial
pair is copied into its ring slot only once the window is full: until then
the trial row is the next slot.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import Array


class SecantWindow:
    """Sliding buffer of up to ``capacity`` (s, y) difference pairs.

    Pushing at capacity overwrites the oldest pair.  ``push_difference`` and
    ``trial_difference`` subtract straight into the row a pair will occupy,
    and ``push_pair`` and ``matrices_with`` copy nothing when handed the
    views of that row, so each difference is written once.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        self.count = 0
        self._pushes = 0
        self._s_rows: Array | None = None
        self._y_rows: Array | None = None
        # (s, y) views of each row, made once so that identity tells a row apart
        self._rows: list[tuple[Array, Array]] = []

    def push_pair(self, s: Array, y: Array) -> "SecantWindow":
        self._put(self._pushes % self.capacity, s, y)
        self._pushes += 1
        self.count = min(self._pushes, self.capacity)
        return self

    def push_difference(self, x_new: Array, x: Array, F_new: Array,
                        F: Array) -> "SecantWindow":
        """Push the pair (x_new - x, F_new - F), computed in its slot."""
        return self.push_pair(*self._subtract(self._pushes % self.capacity,
                                              x_new, x, F_new, F))

    def trial_difference(self, x_new: Array, x: Array, F_new: Array,
                         F: Array) -> tuple[Array, Array]:
        """Views of the spare row holding (x_new - x, F_new - F), to pass to
        ``matrices_with`` and then, if the pair is kept, to ``push_pair``.
        Until the window is full the spare row is the next slot, so that
        push copies nothing."""
        return self._subtract(self.count, x_new, x, F_new, F)

    def newest(self) -> tuple[Array, Array] | tuple[None, None]:
        """Views of the last pair pushed, or (None, None) before the first."""
        if not self._pushes:
            return None, None
        return self._rows[(self._pushes - 1) % self.capacity]

    def matrices_with(self, s_extra: Array, y_extra: Array) -> tuple[Array, Array]:
        """The window contents plus one extra pair as n x (count+1) views
        (S, Y), columns in the same order in both.  The extra pair goes into
        the spare row, so the views are valid until the next push or call."""
        m = self.count + 1
        self._put(m - 1, s_extra, y_extra)
        return self._s_rows[:m].T, self._y_rows[:m].T

    def _row(self, i: int, n: int) -> tuple[Array, Array]:
        if self._s_rows is None:
            self._s_rows = np.empty((self.capacity + 1, n))
            self._y_rows = np.empty_like(self._s_rows)
            self._rows = list(zip(self._s_rows, self._y_rows))
        elif n != self._s_rows.shape[1]:
            raise ValueError("pair length does not match window contents")
        return self._rows[i]

    def _put(self, i: int, s: Array, y: Array) -> None:
        if self._rows and s is self._rows[i][0] and y is self._rows[i][1]:
            return
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be vectors of equal length")
        s_row, y_row = self._row(i, s.shape[0])
        s_row[:] = s
        y_row[:] = y

    def _subtract(self, i: int, x_new: Array, x: Array, F_new: Array,
                  F: Array) -> tuple[Array, Array]:
        s_row, y_row = self._row(i, x.shape[0])
        np.subtract(x_new, x, out=s_row)
        np.subtract(F_new, F, out=y_row)
        return s_row, y_row


# Rows per block of the tall-skinny QR.  A block of [Y b] is copied into one
# Fortran-ordered BLOCK_ROWS x (m + 1) buffer, 0.9 MiB at m + 1 = 7, and
# np.linalg.qr copies it twice more (about 2.7 MB in all, above a 2 MiB L2);
# the unblocked Householder QR sweeps that block once per column, where a
# single n x m QR streams the whole matrix from memory per column.
BLOCK_ROWS = 16_384


def min_norm_ls(Y: Array, b: Array) -> tuple[Array, int]:
    """Minimum-norm least-squares solution of Y nu = b (rank-deficient safe)
    and the numerical rank of Y."""
    n, m = Y.shape
    if n <= BLOCK_ROWS:
        nu, _, rank, _ = np.linalg.lstsq(Y, b, rcond=None)
        return nu, int(rank)
    # [Y b] = diag(Q_1, Q_2, ...) Rs with orthonormal Q_i, so Rs[:, :m] nu =
    # Rs[:, m] is the same least-squares problem and Rs[:, :m] has the
    # singular values of Y; the explicit rcond keeps lstsq's rank rule for Y.
    k = m + 1
    buf = np.empty((BLOCK_ROWS, k), order="F")
    Rs = np.zeros((-(-n // BLOCK_ROWS) * k, k))
    for i, j in enumerate(range(0, n, BLOCK_ROWS)):
        c = min(BLOCK_ROWS, n - j)
        buf[:c, :m] = Y[j:j + c]
        buf[:c, m] = b[j:j + c]
        R = np.linalg.qr(buf[:c], mode="r")
        Rs[i * k:i * k + R.shape[0]] = R
    rcond = np.finfo(np.float64).eps * max(n, m)
    nu, _, rank, _ = np.linalg.lstsq(Rs[:, :m], Rs[:, m], rcond=rcond)
    return nu, int(rank)


def accel_point(window: SecantWindow, s_k: Array, y_k: Array,
                x_trial: Array, F_trial: Array,
                on_info: Callable[[int, int, float], None] | None = None) -> Array:
    """Extrapolated point x_trial - S nu from the window plus the trial pair.

    Performs no residual evaluation.  ``on_info`` (if given) receives the
    column count, the numerical rank, and ||nu||_2.
    """
    S, Y = window.matrices_with(s_k, y_k)
    nu, rank = min_norm_ls(Y, F_trial)
    if on_info is not None:
        on_info(S.shape[1], rank, float(np.linalg.norm(nu)))
    return x_trial - S @ nu
