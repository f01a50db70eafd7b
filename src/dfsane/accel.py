"""Sequential-secant acceleration: sliding difference window and the
minimum-norm least-squares extrapolation step.

The accelerated point is x_trial - S nu where nu is the minimum-norm
least-squares solution of Y nu = F(x_trial), with S and Y collecting the
recent iterate and residual differences column by column.  nu is computed
through a rank-revealing complete orthogonalization of Y rather than an
explicit pseudoinverse.

Layout and rounding.  S and Y are C-ordered n x m arrays (m <= nhlim), so a
column of Y is a strided view.  The kernel keeps that layout and issues its
BLAS and LAPACK calls (``Q.T @ v``, ``Q @ c``, ``q @ work``, ``norm``, the
``qr`` and ``solve`` of the coefficient matrix, ``S @ nu``) on exactly these
operands, because a different layout changes their rounding: the accelerated
rosenbrock-10 run and the golden traces move under a row-major kernel that
is otherwise the same Gram-Schmidt.  The elementwise work between those calls
runs through two preallocated n-vectors instead of n x k temporaries, with
every floating-point operation unchanged, so nu, the rank and ||nu|| are the
same bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EPS_MACH, Array

DEFAULT_TOL_RANK = math.sqrt(EPS_MACH)


class SecantWindow:
    """Sliding buffer of up to ``capacity`` (s, y) difference pairs.

    Pairs are kept oldest first; pushing at capacity evicts the oldest pair.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        self._s: deque[Array] = deque(maxlen=capacity)
        self._y: deque[Array] = deque(maxlen=capacity)

    def push_pair(self, s: Array, y: Array) -> "SecantWindow":
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be vectors of equal length")
        if self._s and s.shape != self._s[0].shape:
            raise ValueError("pair length does not match window contents")
        self._s.append(s)
        self._y.append(y)
        return self

    @property
    def count(self) -> int:
        return len(self._s)

    def matrices_with(self, s_extra: Array, y_extra: Array) -> tuple[Array, Array]:
        """Stack window contents plus one extra pair into n x (count+1) matrices."""
        S = np.column_stack([*self._s, s_extra])
        Y = np.column_stack([*self._y, y_extra])
        return S, Y


@dataclass(frozen=True, eq=False)
class Orthogonalization:
    """Column-pivoted orthogonal factorization of an n x m matrix.

    ``q`` holds ``rank`` orthonormal columns spanning the numerical column
    space; ``coef`` is the rank x m coefficient matrix with
    Y[:, perm] ~= q @ coef.  A column joins the basis only while its
    orthogonalized residual norm exceeds ``DEFAULT_TOL_RANK`` times the
    largest column norm of the input.
    """

    q: Array
    coef: Array
    perm: Array
    rank: int

    def min_norm_solution(self, b: Array) -> Array:
        """Minimum-norm least-squares solution of Y nu = b.

        The coefficient matrix has full row rank, so the minimum-norm
        solution of coef z = q' b lies in its row space; it is recovered via
        a QR factorization of coef' and one triangular solve.
        """
        nu = np.zeros(self.perm.shape[0])
        if self.rank == 0:
            return nu
        c = self.q.T @ b
        q2, t = np.linalg.qr(self.coef.T)
        w = np.linalg.solve(t.T, c)
        nu[self.perm] = q2 @ w
        return nu


def orthogonalize_columns(Y: Array) -> Orthogonalization:
    """Rank-revealing orthogonalization by pivoted modified Gram-Schmidt.

    At each step the remaining column with the largest residual norm is
    orthogonalized against the basis (with one reorthogonalization pass to
    keep the basis orthonormal to round-off) and the factorization stops as
    soon as the best remaining residual norm falls below the rank threshold.
    ``Y`` is not modified.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D matrix")
    return _orthogonalize_in_place(Y.copy())


def _column_norms(w: Array, col: Array) -> Array:
    """Euclidean norms of the columns of ``w``, rounded as
    ``np.sqrt((w * w).sum(axis=0))`` rounds them, without the n x k product.

    numpy sums a C-ordered product down axis 0 one row at a time, and einsum
    does the same for two or more columns; for a single column numpy's
    reduction is pairwise, which the 1-D sum of the squares in ``col``
    repeats.
    """
    if w.shape[1] == 1:
        return np.sqrt(np.multiply(w[:, 0], w[:, 0], out=col).sum(keepdims=True))
    return np.sqrt(np.einsum("ij,ij->j", w, w))


def _orthogonalize_in_place(work: Array) -> Orthogonalization:
    """``orthogonalize_columns`` on a C-ordered float64 matrix it may overwrite."""
    n, m = work.shape
    perm = np.arange(m)
    limit = min(n, m)
    Q = np.zeros((n, limit))
    R = np.zeros((limit, m))
    v = np.empty(n)
    col = np.empty(n)

    residual_norms = _column_norms(work, col)
    ymax = float(residual_norms.max()) if m else 0.0
    threshold = DEFAULT_TOL_RANK * ymax if math.isfinite(ymax) else math.inf

    rank = 0
    for step in range(limit):
        if step > 0:
            residual_norms = _column_norms(work[:, step:], col)
        jloc = int(np.argmax(residual_norms))
        if not residual_norms[jloc] > threshold:
            break
        j = step + jloc
        # The pivot column goes to v; column ``step`` of work is not read
        # again, so the swap only has to move it to column j.
        v[:] = work[:, j]
        if j != step:
            work[:, j] = work[:, step]
            R[:, [step, j]] = R[:, [j, step]]
            perm[[step, j]] = perm[[j, step]]

        if rank > 0:
            correction = Q[:, :rank].T @ v
            v -= np.matmul(Q[:, :rank], correction, out=col)
            R[:rank, step] += correction
        nrm = float(np.linalg.norm(v))
        if not nrm > threshold:
            break
        q = np.divide(v, nrm, out=v)
        Q[:, rank] = q
        R[rank, step] = nrm
        if step + 1 < m:
            proj = q @ work[:, step + 1:]
            R[rank, step + 1:] = proj
            # Rank-1 update of the trailing columns, one column at a time.
            for i, p in enumerate(proj, start=step + 1):
                work[:, i] -= np.multiply(q, p, out=col)
        rank += 1

    return Orthogonalization(q=Q[:, :rank], coef=R[:rank, :], perm=perm, rank=rank)


def min_norm_ls(Y: Array, b: Array) -> Array:
    """Minimum-norm least-squares solution of Y nu = b (rank-deficient safe)."""
    return orthogonalize_columns(Y).min_norm_solution(np.asarray(b, dtype=np.float64))


def accel_point(window: SecantWindow, s_k: Array, y_k: Array,
                x_trial: Array, F_trial: Array,
                on_info: Callable[[int, int, float], None] | None = None) -> Array:
    """Extrapolated point x_trial - S nu from the window plus the trial pair.

    Performs no residual evaluation.  ``on_info`` (if given) receives the
    column count, the numerical rank, and ||nu||_2.
    """
    S, Y = window.matrices_with(s_k, y_k)
    # Y is a fresh C-ordered stack, so the kernel may work in it directly.
    orth = _orthogonalize_in_place(np.asarray(Y, dtype=np.float64))
    nu = orth.min_norm_solution(np.asarray(F_trial, dtype=np.float64))
    if on_info is not None:
        on_info(S.shape[1], orth.rank, float(np.linalg.norm(nu)))
    return x_trial - S @ nu
