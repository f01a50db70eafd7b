"""Tests for the spectral coefficient and the forcing sequence."""

import numpy as np

from dfsane.steps import SIGMA_MAX, SIGMA_MIN, EtaSchedule, sigma_k


def test_eta_from_norm_four():
    sched = EtaSchedule.from_initial_residual(4.0)
    assert sched.eta0 == 2.0  # min(2, 2)
    assert sched.eta(0) == 2.0
    assert sched.eta(3) == 0.25


def test_eta_small_initial_residual():
    sched = EtaSchedule.from_initial_residual(0.01)
    assert sched.eta0 == 0.005  # min(0.005, 0.1)


def test_eta_halves_exactly():
    sched = EtaSchedule.from_initial_residual(3.7)
    for k in range(60):
        assert sched.eta(k) > 0.0
        assert sched.eta(k) / sched.eta(k + 1) == 2.0
        assert sched.eta(k + 1) < sched.eta(k)


def test_sigma_spectral_value_passes_through():
    prev = (np.zeros(2), np.zeros(2))
    sigma = sigma_k(*prev, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert sigma == 0.5  # s's / s'y = 1 / 2, bit for bit


def test_sigma_negative_value_is_kept():
    prev = (np.zeros(2), np.array([1.0, 0.0]))
    sigma = sigma_k(*prev, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert sigma == -0.5  # |sigma| in range, sign preserved


def test_sigma_orthogonal_sy_uses_fallback():
    # s = 0 makes s'y = 0; fallback is max(sig_min, min(|x|/|F|, sig_max)).
    x = np.array([3.0, 4.0])
    F = np.array([0.0, 5.0])
    prev = (x.copy(), np.array([1.0, 1.0]))
    assert sigma_k(*prev, x, F) == 1.0


def test_sigma_out_of_range_spectral_falls_back():
    # s = (1,0), y = (0.1,0) gives sigma_spg = 10 > min(1, SIGMA_MAX).
    x = np.array([1.0, 0.0])
    F = np.array([0.1, 5.0])
    prev = (np.zeros(2), np.array([0.0, 5.0]))
    expected = max(SIGMA_MIN,
                   min(np.linalg.norm(x) / np.linalg.norm(F), SIGMA_MAX))
    assert sigma_k(*prev, x, F) == expected


def test_sigma_first_iteration_uses_fallback():
    x = np.array([3.0, 4.0])
    F = np.array([0.0, 5.0])
    assert sigma_k(None, None, x, F) == 1.0


def test_sigma_at_origin_substitutes_unit_rho():
    # |x| = 0 would give sigma = SIGMA_MIN; rho = 1 is substituted instead.
    F = np.array([2.0, 0.0])
    assert sigma_k(None, None, np.zeros(2), F) == 0.5


def test_sigma_always_within_safeguards():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 10)
        F = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 10)
        if np.linalg.norm(F) == 0.0:
            continue
        if rng.random() < 0.5:
            prev = (None, None)
        else:
            prev = (x - rng.standard_normal(n), F - rng.standard_normal(n))
        sigma = sigma_k(*prev, x, F)
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
        assert sigma_k(prev_x, prev_F, x, F) == spg
    assert hits > 20  # the sample must actually exercise the pass-through arm
