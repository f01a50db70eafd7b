"""Tests for the built-in problems, the registry, and fixture loading."""

import math

import numpy as np
import pytest

from dfsane.core import BLOCK_ROWS, CountedEvaluator
from dfsane.problems import (
    REGISTRY,
    available,
    booth,
    broyden_tridiagonal,
    discrete_bvp,
    expfun2,
    fixtures_from_dir,
    load_linear_fixture,
    make,
    rosenbrock_ext,
    suite_builtin,
    trigexp,
)

# Documented reference roots for suite problems that have a closed form.
KNOWN_ROOTS = {
    "expfun2": lambda p: np.zeros(p.n),
    "booth": lambda p: np.array([1.0, 3.0]),
    "linear-dense": lambda p: np.where(np.arange(p.n) % 2 == 0, 1.0, -1.0),
    "rosenbrock": lambda p: np.ones(p.n),
    "powell-singular": lambda p: np.zeros(p.n),
    "trigexp": lambda p: np.ones(p.n),
}


def fd_jacobian(residual, x, h=1e-7):
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (residual(xp) - residual(xm)) / (2.0 * step)
    return J


def newton_certificate(problem, iters=80):
    """Independent root refinement by damped finite-difference Newton."""
    x = problem.x0.copy()
    for _ in range(iters):
        F = problem.residual(x)
        if np.linalg.norm(F) <= 1e-13:
            break
        step = np.linalg.solve(fd_jacobian(problem.residual, x), F)
        t = 1.0
        base = np.linalg.norm(F)
        while t > 1e-8 and np.linalg.norm(problem.residual(x - t * step)) > base:
            t *= 0.5
        x = x - t * step
    return x


def root_for(problem):
    for key, builder in KNOWN_ROOTS.items():
        if problem.name.startswith(key):
            return builder(problem)
    return newton_certificate(problem)


# ---------------------------------------------------------------------------
# individual problems
# ---------------------------------------------------------------------------

def test_expfun2_merit_at_start():
    p = expfun2(3)
    np.testing.assert_allclose(p.x0, np.full(3, 1.0 / 9.0))
    _, f = CountedEvaluator(p).evaluate(p.x0)
    assert abs(f - 0.02060606) <= 1e-7


def test_expfun2_root_at_origin():
    p = expfun2(5)
    np.testing.assert_array_equal(p.residual(np.zeros(5)), np.zeros(5))


def test_expfun2_component_formula():
    p = expfun2(2)
    F = p.residual(np.array([0.0, 1.0]))
    assert F[0] == 0.0
    assert F[1] == pytest.approx(0.2 * (math.e - 1.0), abs=1e-14)


def test_expfun2_rejects_small_n():
    with pytest.raises(ValueError):
        expfun2(1)


@pytest.mark.parametrize("factory, n, message", [
    (rosenbrock_ext, 3, "even n >= 2"), (rosenbrock_ext, 0, "even n >= 2"),
    (broyden_tridiagonal, 1, "n >= 2"), (discrete_bvp, 1, "n >= 2"), (trigexp, 1, "n >= 2"),
])
def test_problem_rejects_a_dimension_it_cannot_take(factory, n, message):
    with pytest.raises(ValueError, match=message):
        factory(n)


def trigexp_expression(x):
    """Reference: trigexp's residual as numpy expressions with temporaries."""
    F = np.empty_like(x)
    F[0] = 3.0 * x[0] ** 3 + 2.0 * x[1] - 5.0 \
        + np.sin(x[0] - x[1]) * np.sin(x[0] + x[1])
    if x.size > 2:
        xl, xm, xr = x[:-2], x[1:-1], x[2:]
        F[1:-1] = -xl * np.exp(xl - xm) + xm * (4.0 + 3.0 * xm * xm) \
            + 2.0 * xr + np.sin(xm - xr) * np.sin(xm + xr) - 8.0
    F[-1] = -x[-2] * np.exp(x[-2] - x[-1]) + 4.0 * x[-1] - 3.0
    return F


def broyden_expression(x):
    """Reference: broyden-tri's residual as whole-vector numpy expressions."""
    F = (3.0 - 2.0 * x) * x + 1.0
    F[1:] -= x[:-1]
    F[:-1] -= 2.0 * x[1:]
    return F


# Block edges: trigexp's n - 2 interior rows fill one block at BLOCK_ROWS + 2
# and leave a one-row tail block at BLOCK_ROWS + 3; broyden-tri's n rows do
# so at BLOCK_ROWS and BLOCK_ROWS + 1.
BIT_SIZES = [2, 3, 4, 50, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2, BLOCK_ROWS + 3,
             2 * BLOCK_ROWS + 2, 100_000]


@pytest.mark.parametrize("factory, reference, n", [
    pytest.param(factory, reference, n, id=f"{prefix}{n}")
    for factory, reference, prefix in ((trigexp, trigexp_expression, ""),
                                       (broyden_tridiagonal, broyden_expression, "broyden-tri-"))
    for n in BIT_SIZES])
def test_trigexp_in_place_matches_the_expression_bit_for_bit(factory, reference, n):
    # The blocked residuals give the whole-vector expressions' bits, including
    # overflow, NaN and inf.
    rng = np.random.default_rng(n)
    residual = factory(n).residual
    special = rng.standard_normal(n)
    special[::7], special[3::11], special[5::13] = np.nan, np.inf, -np.inf
    with np.errstate(all="ignore"):
        for x in [scale * rng.standard_normal(n) for scale in (1e-3, 1.0, 4.0, 1e3, 1e6)] \
                + [special]:
            assert residual(x).tobytes() == reference(x).tobytes()


@pytest.mark.parametrize("name", available())
def test_residual_returns_a_new_array_on_each_call(name):
    # solve holds the current, trial and best F at once, so a residual that
    # reused one buffer would overwrite them.  Problems of free size cross a
    # block edge, except linear-dense, whose dense matrix is n x n.
    n = {"booth": None, "linear-dense": None, "powell-singular": None,
         "rosenbrock-ext": BLOCK_ROWS + 4}.get(name, BLOCK_ROWS + 3)
    p = make(name, n)
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal(p.n), rng.standard_normal(p.n)
    x1_before = x1.copy()
    F1 = p.residual(x1)
    F1_before = F1.copy()
    F2 = p.residual(x2)
    for a, b in ((F1, F2), (F1, x1), (F1, x2), (F2, x1), (F2, x2)):
        assert not np.shares_memory(a, b)
    assert F1.tobytes() == F1_before.tobytes()
    assert x1.tobytes() == x1_before.tobytes()


def test_booth_values():
    p = booth()
    np.testing.assert_array_equal(p.residual(np.array([1.0, 3.0])), [0.0, 0.0])
    F0 = p.residual(np.zeros(2))
    assert float(F0 @ F0) == 74.0
    F1 = p.residual(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(F1, [-6.0, -3.0])
    assert float(F1 @ F1) == 45.0


def test_powell_singular_jacobian_rank_at_start():
    p = make("powell-singular")
    J = fd_jacobian(p.residual, p.x0)
    assert np.linalg.matrix_rank(J, tol=1e-4) == 2
    assert np.linalg.norm(p.residual(p.x0)) > 1.0  # start is not a root


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lookup_with_dimension():
    p = make("expfun2", 3)
    assert p.n == 3
    np.testing.assert_allclose(p.x0, np.full(3, 1.0 / 9.0))


def test_registry_lookup_is_case_insensitive():
    p = make("BOOTH")
    assert p.n == 2


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        make("no-such-problem")


def test_registry_fixed_dimension_mismatch():
    with pytest.raises(ValueError):
        make("booth", 5)


@pytest.mark.parametrize("name, n", [("booth", 2), ("powell-singular", 4)])
def test_fixed_dimension_factory_takes_only_its_own_n(name, n):
    factory = REGISTRY[name]
    assert factory().n == factory(n).n == make(name, n).n == n
    for other in (1, n + 1):
        with pytest.raises(ValueError, match=f"^{name} has fixed dimension {n}$"):
            factory(other)
        with pytest.raises(ValueError, match=f"^{name} has fixed dimension {n}$"):
            make(name.upper(), other)


def test_available_lists_registered_names():
    names = available()
    assert "expfun2" in names and "booth" in names
    assert names == sorted(names)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_has_ten_named_problems():
    suite = suite_builtin()
    assert len(suite) >= 10
    names = [p.name for p in suite]
    assert len(set(names)) == len(names)
    dims = {p.name: p.n for p in suite}
    assert dims["expfun2-3"] == 3
    assert dims["expfun2-100"] == 100
    assert dims["expfun2-1000"] == 1000


def test_suite_residuals_finite_and_deterministic_at_start():
    for p in suite_builtin():
        F1 = p.residual(p.x0.copy())
        F2 = p.residual(p.x0.copy())
        assert np.isfinite(F1).all()
        np.testing.assert_array_equal(F1, F2)
        assert F1.shape == (p.n,)


def test_suite_roots_are_certified():
    # every suite problem either has a documented closed-form root or an
    # independently refined one; both must drive the merit below 1e-20
    for p in suite_builtin():
        x_star = root_for(p)
        F = p.residual(x_star)
        assert float(F @ F) <= 1e-20, p.name


# ---------------------------------------------------------------------------
# linear fixtures
# ---------------------------------------------------------------------------

FIXTURE = """2
2 0 4
0 4 -8
1 1
"""


def test_fixture_roundtrip(tmp_path):
    path = tmp_path / "diag2.txt"
    path.write_text(FIXTURE)
    p = load_linear_fixture(path)
    assert p.name == "diag2"
    assert p.n == 2
    np.testing.assert_array_equal(p.x0, [1.0, 1.0])
    np.testing.assert_array_equal(p.residual(np.array([2.0, -2.0])), [0.0, 0.0])


def test_fixture_dir_globs_txt(tmp_path):
    (tmp_path / "a.txt").write_text(FIXTURE)
    (tmp_path / "b.txt").write_text(FIXTURE)
    (tmp_path / "ignore.csv").write_text("not a fixture")
    problems = fixtures_from_dir(tmp_path)
    assert [p.name for p in problems] == ["a", "b"]


def test_fixture_dir_rejects_a_path_that_is_not_a_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        fixtures_from_dir(tmp_path / "missing")
    (tmp_path / "a.txt").write_text(FIXTURE)
    with pytest.raises(NotADirectoryError):
        fixtures_from_dir(tmp_path / "a.txt")


@pytest.mark.parametrize("text, message", [
    ("", "empty fixture"),
    ("x", "'x' is not a finite number"),
    ("2\n1 2 3\n", "expected 9 numbers, found 4"),
    ("0\n", "dimension must be a positive integer"),
    ("2\n2 nan 4\n0 4 -8\n1 1\n", "'nan' is not a finite number"),
    ("2\n2 0 4\n0 4 inf\n1 1\n", "'inf' is not a finite number"),
    ("2\n2 0 4\n0 4 -8\n1 nan\n", "'nan' is not a finite number"),
    ("1.5\n2 0 4\n0 4 -8\n1 1\n", "dimension must be a positive integer"),
    ("# 2\n", "empty fixture"),
], ids=["", "x", "2\n1 2 3\n", "0\n", "nan-in-A", "inf-in-b", "nan-in-x0",
        "fractional-dimension", "comment-only"])
def test_fixture_malformed_rejected(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_linear_fixture(path)
    assert str(info.value) == f"{path}: {message}"
