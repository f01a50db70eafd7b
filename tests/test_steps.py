"""Tests for the spectral coefficient."""

import math

import numpy as np
import pytest

from dfsane.core import BLOCK_ROWS
from dfsane.steps import SIGMA_MAX, SIGMA_MIN, secant_pair, sigma_k


def secant_products(s, y):
    """(s'y, s's), the pair sigma_k reads, as whole-vector dot products
    (the bits of secant_pair at n <= BLOCK_ROWS)."""
    return float(s.dot(y)), float(s.dot(s))


def merit(F):
    """F'F, the merit value that the solver holds and passes to sigma_k."""
    return float(F.dot(F))


def test_sigma_spectral_value_passes_through():
    # s = x - 0, y = F - 0
    sigma = sigma_k(secant_products(np.array([1.0, 0.0]), np.array([2.0, 0.0])),
                    np.array([1.0, 0.0]), merit(np.array([2.0, 0.0])))
    assert sigma == 0.5  # s's / s'y = 1 / 2, bit for bit


def test_sigma_negative_value_is_kept():
    # s = (1, 0) - 0, y = (-1, 0) - (1, 0)
    sigma = sigma_k(secant_products(np.array([1.0, 0.0]), np.array([-2.0, 0.0])),
                    np.array([1.0, 0.0]), merit(np.array([-1.0, 0.0])))
    assert sigma == -0.5  # |sigma| in range, sign preserved


def test_sigma_orthogonal_sy_uses_fallback():
    # s = 0 makes s'y = 0; fallback is max(sig_min, min(|x|/|F|, sig_max)).
    x = np.array([3.0, 4.0])
    F = np.array([0.0, 5.0])
    pair = secant_products(x - x, F - np.array([1.0, 1.0]))
    assert sigma_k(pair, x, merit(F)) == 1.0


def test_sigma_out_of_range_spectral_falls_back():
    # s = (1,0), y = (0.1,0) gives sigma_spg = 10 > min(1, SIGMA_MAX).
    x = np.array([1.0, 0.0])
    F = np.array([0.1, 5.0])
    pair = secant_products(x - np.zeros(2), F - np.array([0.0, 5.0]))
    expected = max(SIGMA_MIN,
                   min(np.linalg.norm(x) / np.linalg.norm(F), SIGMA_MAX))
    assert sigma_k(pair, x, merit(F)) == expected


def test_sigma_first_iteration_uses_fallback():
    x = np.array([3.0, 4.0])
    F = np.array([0.0, 5.0])
    assert sigma_k(None, x, merit(F)) == 1.0


def test_sigma_at_origin_substitutes_unit_rho():
    # |x| = 0 would give sigma = SIGMA_MIN; rho = 1 is substituted instead.
    F = np.array([2.0, 0.0])
    assert sigma_k(None, np.zeros(2), merit(F)) == 0.5


def test_sigma_always_within_safeguards():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 10)
        F = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 10)
        if np.linalg.norm(F) == 0.0:
            continue
        if rng.random() < 0.5:
            pair = None
        else:
            pair = secant_products(rng.standard_normal(n), rng.standard_normal(n))
        sigma = sigma_k(pair, x, merit(F))
        assert SIGMA_MIN <= abs(sigma) <= SIGMA_MAX


def test_sigma_in_range_is_bit_identical():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        prev_x = rng.standard_normal(n)
        prev_F = rng.standard_normal(n)
        x = prev_x + rng.standard_normal(n)
        F = prev_F + rng.standard_normal(n)
        s = x - prev_x
        y = F - prev_F
        sty = float(s @ y)
        if sty == 0.0:
            continue
        spg = float(s @ s) / sty
        if not (SIGMA_MIN <= abs(spg) <= min(1.0, SIGMA_MAX)):
            continue
        hits += 1
        assert sigma_k(secant_products(s, y), x, merit(F)) == spg
    assert hits > 20  # the sample must actually exercise the pass-through arm


def norm_reference(s, y, x, F):
    """sigma_k of the pair (s, y) as written with np.linalg.norm, the
    reference for its bits."""
    if s is not None:
        sty = float(s @ y)
        if sty != 0.0:
            spg = float(s @ s) / sty
            if SIGMA_MIN <= abs(spg) <= 1.0:
                return spg
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        rho = 1.0
    return max(SIGMA_MIN, min(rho / float(np.linalg.norm(F)), SIGMA_MAX))


@pytest.mark.parametrize("n", [2, 50, 100_000])
def test_sigma_matches_the_norm_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    spectral = []
    for _ in range(40 if n < 100_000 else 6):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        F = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        s = rng.standard_normal(n)
        # y near s / c makes s's / s'y near c in (0.5, 2): the spectral value
        # is kept about half the time, and the fallback is taken otherwise.
        y = s / rng.uniform(0.5, 2.0) + 1e-3 * rng.standard_normal(n)
        spectral.append(SIGMA_MIN <= abs(float(s @ s) / float(s @ y)) <= 1.0)
        sigma = sigma_k(secant_products(s, y), x, merit(F))
        assert repr(sigma) == repr(norm_reference(s, y, x, F))
        assert repr(sigma_k(None, x, merit(F))) == repr(norm_reference(None, None, x, F))
    assert any(spectral) and not all(spectral)  # both branches with a pair


def secant_operands(n, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for _ in range(4))


@pytest.mark.parametrize("n", [1, 4, BLOCK_ROWS])
def test_secant_pair_in_one_block_is_the_dot_products_bit_for_bit(n):
    for seed in range(5):
        x_new, x, F_new, F = secant_operands(n, seed)
        got = secant_pair(x_new, x, F_new, F)
        want = secant_products(x_new - x, F_new - F)
        assert all(type(v) is float for v in got)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3, 100_000])
def test_secant_pair_above_one_block_sums_the_block_products(n):
    for seed in range(3):
        x_new, x, F_new, F = secant_operands(n, seed)
        s, y = x_new - x, F_new - F
        np.testing.assert_allclose(secant_pair(x_new, x, F_new, F),
                                   secant_products(s, y), rtol=1e-12, atol=0.0)
        # The rule: the blocks' dot products added in block order.
        sty = sts = 0.0
        for i in range(0, n, BLOCK_ROWS):
            sty += float(s[i:i + BLOCK_ROWS].dot(y[i:i + BLOCK_ROWS]))
            sts += float(s[i:i + BLOCK_ROWS].dot(s[i:i + BLOCK_ROWS]))
        assert repr(secant_pair(x_new, x, F_new, F)) == repr((sty, sts))


@pytest.mark.parametrize("n", [4, 2 * BLOCK_ROWS + 3])
@pytest.mark.parametrize("x_first, x_last, F_first, F_last", [
    (0.0, math.nan, 0.0, 0.0),            # s'y and s's NaN
    (0.0, math.inf, 0.0, 0.0),            # s'y +-inf, s's inf
    (math.inf, -math.inf, math.inf, math.inf),  # +inf and -inf terms: s'y NaN
    (0.0, 0.0, 0.0, math.inf),            # y alone infinite: s'y +-inf
])
def test_secant_pair_propagates_nonfinite_values(n, x_first, x_last, F_first, F_last):
    # The first and last rows lie in different blocks when n > BLOCK_ROWS.
    x_new, x, F_new, F = secant_operands(n, 0)
    x_new[0] += x_first
    x_new[-1] += x_last
    F_new[0] += F_first
    F_new[-1] += F_last
    with np.errstate(invalid="ignore"):
        got = secant_pair(x_new, x, F_new, F)
        want = secant_products(x_new - x, F_new - F)
    assert not all(map(math.isfinite, got))
    for g, w in zip(got, want):
        if math.isfinite(w):  # summed in another order above one block
            assert math.isclose(g, w, rel_tol=1e-12)
        else:
            assert repr(g) == repr(w)  # inf, -inf or nan alike
