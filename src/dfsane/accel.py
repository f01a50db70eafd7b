"""Sequential-secant acceleration: sliding difference window and the
minimum-norm least-squares extrapolation step.

The accelerated point is x_trial - S nu where nu is the minimum-norm
least-squares solution of Y nu = F(x_trial), with S and Y collecting the
recent iterate and residual differences plus the trial pair.  Both layouts
below use the rank rule of numpy's ``lstsq`` (LAPACK's SVD-based solver):
the numerical rank counts the singular values of Y above
``eps * max(n, m) * sigma_max``.

Each trial pair has one lifecycle.  ``trial_difference(x_trial, x,
F_trial, F)`` holds the four vectors.  The solve,
``accel_point(window, None, None, x_trial, F_trial, out=window.spare_row())``,
forms the pair's y, releases the vectors and writes the extrapolated point,
by row chunks, into the row of S that the next push writes.  S holds the p
pairs alone: the trial step x_trial - x is formed where it is read, as both
points are alive there.  Then ``keep_trial(x_trial, x)`` pushes the solved
pair, or ``push_difference`` pushes the pair of the point that won instead.
An outside pair (s, y) is the difference (s - 0, y - 0), bit for bit:
``push_pair`` pushes it, ``accel_point`` makes it the trial pair and solves
it (``keep_trial(s, 0.0)`` pushes it), and ``matrices_with`` only reads the
window with it.  Every solve reads the trial pair and makes one ``lstsq``
call, with ``rcond = eps * max(n, m)`` in both layouts.

Direct layout (n <= ``BLOCK_ROWS``).  The window keeps S and Y as
preallocated row-major p x n and (p + 1) x n arrays, one row per pair, so
nothing is restacked per call: pairs fill a ring of p rows and the solve
writes the trial pair's y into the row of Y after them.  The n x m Y is a
transposed (Fortran-ordered) view of its first m rows, which ``lstsq``
solves.  Rows are in ring order, not in age order; the solution is invariant
(in exact arithmetic) under a common column permutation of S and Y.  A kept
trial pair's y is copied into its ring slot only once the window is full:
until then the trial row is the next slot.

Factored layout (n > ``BLOCK_ROWS``).  S is kept as above, but Y is not
stored.  Its rows array holds thin QR factors instead, kept per block of at
most ``BLOCK_ROWS`` rows: Y_i = Q_i R_i with Q_i (c x m) orthonormal and R_i
(m x m) upper triangular, the columns in age order, oldest first.  Row j
of the array holds column j of every Q_i.  The factors change one column at
a time, and each change is made by the next pass over the blocks (one per
iteration: the ``accel_point`` call), while each block is in cache:

- a column is appended by classical Gram-Schmidt, reorthogonalized once
  when the first pass cancels (Daniel, Gragg, Kaufman & Stewart, Math.
  Comp. 30, 1976).  A column that is numerically dependent within a block
  gets a zero diagonal entry and a unit vector orthogonal to the block's
  other columns;
- the oldest column is dropped by re-triangularizing each R_i[:, 1:] with a
  small QR, R_i[:, 1:] = G_i T_i, and rotating Q_i by the same G_i, as
  sliding-window Anderson acceleration codes do (Walker & Ni, SIAM J. Numer.
  Anal. 49, 2011).

A pushed pair's y waits in the row after the factored columns until that
pass orthogonalizes it in place.  The solve's pass factors the trial column
into the row after the counted columns, but counts it only once
``keep_trial`` commits it; a trial column that is not kept is written over
by the next pass or push.

Y = diag(Q_1, Q_2, ...) [R_1; R_2; ...] with orthonormal columns, so nu is
the ``lstsq`` solution of the stacked R against the stacked Q_i^T F(x_trial),
and the stacked R has the singular values of Y, so the same ``rcond`` gives
the direct layout's rank rule.  nu comes out in age order and is permuted
into S's ring order before x_trial - S nu.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BLOCK_ROWS, EPS_MACH, Array

# Columns per step of the rotation, rows per step of the extrapolated point.
# The rotation's chunks give the whole-block product's bits at the widths that
# tests/test_accel.py pins; a last chunk of one column (width = 1 mod _CHUNK) may not.
_CHUNK, _POINT_ROWS = 2048, 4096


class SecantWindow:
    """Sliding buffer of up to ``capacity`` (s, y) difference pairs.

    Pushing at capacity overwrites the oldest pair.  Every pair is
    subtracted straight into the row it will occupy, so each difference is
    written once (an outside pair as (s - 0, y - 0)).  The layout (module
    docstring) depends on the pair length alone; a window wider than half
    a block keeps the direct layout.  ``rank`` and ``nu`` (in S's column
    order) are those of the last ``accel_point`` solve, None before the
    first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        self.count = 0
        self.rank: int | None = None
        self.nu: Array | None = None
        self._pushes = 0
        self._s_rows: Array | None = None
        self._y_rows: Array | None = None
        self._qr: _BlockQR | None = None
        # (x_new, x, F_new, F) of the trial pair until its solve, then (); else None
        self._trial: tuple[Array, ...] | None = None

    def push_pair(self, s: Array, y: Array) -> None:
        """Push the pair (s, y), written as the difference (s - 0, y - 0)."""
        self.push_difference(*self._outside(s, y))

    def push_difference(self, x_new: Array, x: Array, F_new: Array, F: Array) -> None:
        """Push the pair (x_new - x, F_new - F), computed in its slot; the
        trial pair is discarded."""
        self._check(x_new, x, F_new, F)
        self._trial = None
        np.subtract(x_new, x, out=self.spare_row())
        i = self._pushes % self.capacity if self._qr is None else self._qr.hold()
        np.subtract(F_new, F, out=self._y_rows[i])
        self._advance()

    def trial_difference(self, x_new: Array, x: Array, F_new: Array,
                         F: Array) -> None:
        """Make (x_new - x, F_new - F) the trial pair, which None, None stands
        for until its solve; a push or a new trial pair discards it.  The four
        vectors are held until that solve, which forms the pair."""
        self._check(x_new, x, F_new, F)
        self._trial = (x_new, x, F_new, F)

    def keep_trial(self, x_new: Array, x: Array | float) -> None:
        """Push the solved trial pair with its s written as x_new - x: the
        trial point and x, or s and 0.0 for an outside pair (s - 0, y - 0).
        Its y is the trial row, or its factor column, counted from here on."""
        if self._trial is None or self._trial:
            raise ValueError("no solved trial pair to keep")
        if self._qr is None:
            self.push_difference(x_new, x, self._y_rows[self.count], 0.0)
            return
        self._check(x_new, x)
        self._qr.m = self._qr.k = self._qr.m + 1
        self._trial = None
        np.subtract(x_new, x, out=self.spare_row())
        self._advance()

    def spare_row(self) -> Array:
        """The row of S that the next push writes: free while the window has
        room, else the oldest pair's row, a column of S until that push."""
        return self._s_rows[self._pushes % self.capacity]

    def matrices_with(self, s: Array, y: Array) -> tuple[Array, Array]:
        """The window's pairs plus the outside pair (s, y) as new n x
        (count+1) matrices (S, Y), columns in the same order in both.  It
        only reads the window; the factored layout forms Y from the factors."""
        s, _, y, _ = self._outside(s, y)
        self._check(s)
        S, Y = np.empty((2, self.count + 1, s.shape[0]))
        S[-1], Y[-1] = s, y
        S[:-1] = self._s_rows[:self.count]
        if self._qr is None:
            Y[:-1] = self._y_rows[:self.count]
        else:
            Y[self._order()] = self._qr.columns()
        return S.T, Y.T

    def _solve(self, x_trial: Array, b: Array, out: Array | None) -> tuple[Array, ...]:
        """Keep nu, the minimum-norm least-squares solution of Y nu = b (one
        ``lstsq`` call), and Y's rank, with the trial pair last.  Check every
        vector, ``out`` too, form the pair's y (a row, or the trial column),
        release it and return S's pair rows and the trial's (x_new, x)."""
        if not self._trial:
            raise ValueError("s and y are None but there is no trial pair"
                             if self._trial is None else "the trial pair was solved")
        self._check(*self._trial, x_trial, b, out)
        x_new, x, F_new, F = self._trial
        m, qr = self.count + 1, self._qr
        if qr is None:
            np.subtract(F_new, F, out=self._y_rows[m - 1])
            A, rhs = self._y_rows[:m].T, b
        else:  # the reshape copies, so R is read after the pass updates it
            rhs = qr.update((F_new, F), b).reshape(-1)
            A = qr.R[:, :m, :m].reshape(-1, m)
        nu, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=EPS_MACH * max(x_new.shape[0], m))
        if qr is not None:  # age order into S's row order
            nu = nu[np.argsort(self._order() + [m - 1])]
        self.nu, self.rank, self._trial = nu, int(rank), ()
        return self._s_rows[:m - 1], x_new, x

    def _advance(self) -> None:
        """Count a push; in the factored layout a full window drops its
        oldest column."""
        if self._qr is not None and self.count == self.capacity:
            self._qr.drop_oldest()
        self._pushes += 1
        self.count = min(self._pushes, self.capacity)

    def _order(self) -> list[int]:
        """The row of S of each pair, oldest first."""
        first = self._pushes - self.count
        return [(first + j) % self.capacity for j in range(self.count)]

    def _check(self, *vectors: Array | float | None) -> None:
        """Check, before a call writes, that every vector it was given has
        the pair length (a scalar such as 0.0, or None, is no vector); the
        first pair allocates the rows and fixes the layout."""
        n = np.shape(vectors[0]) if self._s_rows is None else self._s_rows.shape[1:]
        if len(n) != 1 or {np.shape(v) for v in vectors} - {n, ()}:
            raise ValueError("every vector given to the window must have the pair length")
        if self._s_rows is None:
            self._s_rows = np.empty((self.capacity, n[0]))
            self._y_rows = np.empty((self.capacity + 1, n[0]))
            if n[0] > BLOCK_ROWS and 2 * (self.capacity + 1) <= BLOCK_ROWS:
                self._qr = _BlockQR(self._y_rows)

    def _outside(self, s: Array, y: Array) -> tuple[Array, Array, Array, Array]:
        """The outside pair (s, y) as the difference (s - 0, y - 0), in
        float64 with a zero-stride zero; the caller checks the length."""
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be vectors of equal length")
        zero = np.broadcast_to(0.0, s.shape)
        return s, zero, y, zero


class _BlockQR:
    """Per-block thin QR factors of a window's Y (see the module docstring).

    ``rows`` is the window's (p + 1) x n y-rows array.  Its rows [0, k)
    hold the Q columns, every block's side by side, and ``R[i, :k, :m]`` is
    block i's factor for the m factored columns.  Updates are applied by
    the next pass over the blocks: k is m + 1 after the oldest column was
    dropped (R[:, 1:] is Hessenberg until the pass re-triangularizes it and
    rotates Q), and a pushed column waits unfactored in row ``held``.  A
    pass given a trial column factors it into row m and R[:, :m + 1, m] but
    leaves it out of m and k: ``keep_trial`` commits it by counting it, and
    otherwise the next pass or push writes over that row.
    """

    def __init__(self, rows: Array):
        self.rows = rows
        k, n = rows.shape
        nb = -(-n // BLOCK_ROWS)
        edges = [n * i // nb for i in range(nb + 1)]
        self.blocks = list(zip(edges[:-1], edges[1:]))
        self.width = -(-n // nb)
        self.R = np.zeros((nb, k, k))
        self.m = self.k = 0
        self.held: int | None = None

    def hold(self) -> int:
        """The free row for a pushed column, to be factored by the next
        pass; a pending column or a full array is handled first."""
        if self.held is not None or self.k == self.rows.shape[0]:
            self.update()
        self.held = self.k
        return self.k

    def drop_oldest(self) -> None:
        """Drop the first factored column; Q is rotated by the next pass."""
        m = self.m - 1
        self.R[:, :, :m] = self.R[:, :, 1:m + 1]
        self.m = m
        if not m:
            self.k = 0

    def update(self, trial: tuple[Array, Array] | None = None,
               b: Array | None = None) -> Array | None:
        """One pass over the blocks.  In each block: rotate Q for a pending
        drop (G_i^T Q_i, ``_CHUNK`` columns at a time through one buffer),
        factor the held column, then with ``trial`` = (F_new, F) append the
        trial column y = F_new - F, formed in its row, and with ``b`` return
        the stacked Q_i^T b.  The trial column is left uncounted."""
        Q, R = self.rows, self.R
        m, k = self.m, self.k
        rotate = k > m
        if rotate:
            G, R[:, :m, :m] = np.linalg.qr(R[:, :k, :m])
            Gt, buf = G.transpose(0, 2, 1), np.empty((m, _CHUNK))
        new = [] if self.held is None else [Q[self.held]]
        t = m + len(new)
        if trial:
            new.append(Q[t])
        for j in range(m, m + len(new)):
            R[:, j, :j] = 0.0
        work = np.empty(self.width)
        Qb = None if b is None else np.empty((len(self.blocks), m + len(new)))
        for i, (j0, j1) in enumerate(self.blocks):
            if rotate:
                for c in range(j0, j1, _CHUNK):
                    cols = slice(c, min(c + _CHUNK, j1))
                    Q[:m, cols] = np.matmul(Gt[i], Q[:k, cols], out=buf[:, :cols.stop - c])
            for j, v in enumerate(new, start=m):
                if j == t:
                    np.subtract(trial[0][j0:j1], trial[1][j0:j1], out=v[j0:j1])
                _orthonormalize(Q[:j, j0:j1], v[j0:j1], Q[j, j0:j1], R[i, :j + 1, j],
                                work[:j1 - j0])
            if Qb is not None:
                Qb[i] = Q[:Qb.shape[1], j0:j1] @ b[j0:j1]
        self.m = self.k = t
        self.held = None
        return Qb

    def columns(self) -> Array:
        """Every counted column of Y, then the held one, as the rows of a new
        array."""
        m, k = self.m, self.k
        Y = np.empty((m + (self.held is not None), self.rows.shape[1]))
        for i, (j0, j1) in enumerate(self.blocks):
            Y[:m, j0:j1] = self.R[i, :k, :m].T @ self.rows[:k, j0:j1]
        if self.held is not None:
            Y[m] = self.rows[self.held]
        return Y


def _orthonormalize(Q: Array, y: Array, q: Array, r: Array, work: Array) -> None:
    """Write into q the unit vector along y's component orthogonal to the
    rows of Q, and into r y's coordinates in the extended basis.

    Classical Gram-Schmidt, with a second pass when the first leaves less
    than 1/sqrt(2) of the norm (DGKS; q may be y itself).  y lies
    numerically in the span of Q when the first pass leaves no more than
    eps * c of its norm (c rows; a component that small is below the rank
    cutoff eps * max(n, m) * sigma_max) or the second pass cancels as much
    again.  Its last coordinate is then 0, and q is a coordinate vector e_t
    orthogonalized against Q, for a t on which Q has little weight.
    """
    j, c = Q.shape
    h = Q @ y
    np.matmul(h, Q, out=work)
    np.subtract(y, work, out=q)
    rr = q.dot(q)
    # ||y||^2 = ||h||^2 + ||q||^2, so ||q|| <= ||y|| / sqrt(2) iff rr <= h.h
    hh = h.dot(h)
    if not rr > hh:
        dependent = not rr > (EPS_MACH * c) ** 2 * (hh + rr)
        if not dependent:
            scale = rr
            h2 = Q @ q
            np.matmul(h2, Q, out=work)
            np.subtract(q, work, out=q)
            h += h2
            rr = q.dot(q)
            dependent = not rr > 0.5 * scale
        if dependent:
            rr = 0.0
            t = j * 7919 % c
            if not Q[:, t].dot(Q[:, t]) < 0.5:
                t = int(np.argmin(np.einsum("ij,ij->j", Q, Q)))
            np.matmul(Q[:, t], Q, out=q)
            np.negative(q, out=q)
            q[t] += 1.0
    r[:j] = h
    r[j] = math.sqrt(rr)
    np.divide(q, r[j] or math.sqrt(q.dot(q)), out=q)


def accel_point(window: SecantWindow, s_k: Array | None, y_k: Array | None,
                x_trial: Array, F_trial: Array, out: Array | None = None) -> Array:
    """Extrapolated point x_trial - S nu from the window plus its trial pair,
    (s_k - 0, y_k - 0) for an outside pair (s_k, y_k); one ``lstsq`` call.

    Performs no residual evaluation; the window keeps nu and the rank.  The
    point is written into ``out``, or a new array, by row chunks of
    ``_POINT_ROWS``, each chunk's rows of S first copied into one m x chunk
    buffer: the pairs' rows and the trial step x_new - x.  So the solver's
    ``window.spare_row()`` (at a full window a column of S) costs no
    n-vector, and a chunk's S nu sums the same m columns as the whole
    product, bit for bit.  Copy the point out before the push.  Any vector
    of another length than the pair, ``out`` included, is a ValueError
    raised before the window changes."""
    if s_k is not None or y_k is not None:
        pair = window._outside(s_k, y_k)
        window._check(*pair, x_trial, F_trial, out)
        window.trial_difference(*pair)
    pairs, x_new, x = window._solve(x_trial, F_trial, out)
    n, m, nu = x_trial.shape[0], len(pairs) + 1, window.nu
    out = np.empty_like(x_trial) if out is None else out
    buf = np.empty((m, min(n, _POINT_ROWS)))
    for j in range(0, n, _POINT_ROWS):
        rows, c = slice(j, j + _POINT_ROWS), min(_POINT_ROWS, n - j)
        buf[:m - 1, :c] = pairs[:, rows]
        np.subtract(x_new[rows], x[rows], out=buf[m - 1, :c])
        np.matmul(buf[:, :c].T, nu, out=out[rows])
        np.subtract(x_trial[rows], out[rows], out=out[rows])
    return out
