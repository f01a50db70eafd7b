"""Tests for the secant window and the minimum-norm least-squares solve."""

import math

import numpy as np
import pytest

from dfsane.accel import (
    DEFAULT_TOL_RANK,
    SecantWindow,
    _column_norms,
    accel_point,
    min_norm_ls,
    orthogonalize_columns,
)


def pinv_solution(Y, b):
    """Independent oracle: dense SVD pseudoinverse (test harness only)."""
    return np.linalg.pinv(Y) @ b


def reference_min_norm_ls(Y, b):
    """The kernel as first written (test harness only): pivoted modified
    Gram-Schmidt on a copy of Y with n x k numpy temporaries, then the
    minimum-norm solve.  Returns (nu, rank); the package kernel must
    reproduce both bit for bit."""
    work = np.array(Y, dtype=np.float64)
    n, m = work.shape
    perm = np.arange(m)
    limit = min(n, m)
    Q = np.zeros((n, limit))
    R = np.zeros((limit, m))

    col_norms = np.sqrt((work * work).sum(axis=0))
    ymax = float(col_norms.max()) if m else 0.0
    threshold = DEFAULT_TOL_RANK * ymax if math.isfinite(ymax) else math.inf

    rank = 0
    for step in range(limit):
        residual_norms = np.sqrt((work[:, step:] * work[:, step:]).sum(axis=0))
        jloc = int(np.argmax(residual_norms))
        if not residual_norms[jloc] > threshold:
            break
        j = step + jloc
        if j != step:
            work[:, [step, j]] = work[:, [j, step]]
            R[:, [step, j]] = R[:, [j, step]]
            perm[[step, j]] = perm[[j, step]]
        v = work[:, step].copy()
        if rank > 0:
            correction = Q[:, :rank].T @ v
            v -= Q[:, :rank] @ correction
            R[:rank, step] += correction
        nrm = float(np.linalg.norm(v))
        if not nrm > threshold:
            break
        q = v / nrm
        Q[:, rank] = q
        R[rank, step] = nrm
        if step + 1 < m:
            proj = q @ work[:, step + 1:]
            R[rank, step + 1:] = proj
            work[:, step + 1:] -= np.outer(q, proj)
        rank += 1

    nu = np.zeros(m)
    if rank > 0:
        c = Q[:, :rank].T @ b
        q2, t = np.linalg.qr(R[:rank, :].T)
        nu[perm] = q2 @ np.linalg.solve(t.T, c)
    return nu, rank


def random_instance(rng, rank_deficient):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    if rank_deficient and m >= 2 and n >= 1:
        r = int(rng.integers(1, m))
        Y = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        kind = rng.integers(3)
        if kind == 1:                      # duplicated column
            Y[:, -1] = Y[:, 0]
        elif kind == 2:                    # zero column
            Y[:, -1] = 0.0
    else:
        Y = rng.standard_normal((n, m))
    return Y, rng.standard_normal(n)


# ---------------------------------------------------------------------------
# window semantics
# ---------------------------------------------------------------------------

def test_push_single_pair():
    w = SecantWindow(3)
    w.push_pair(np.array([1.0]), np.array([2.0]))
    assert w.count == 1


def test_eviction_order():
    w = SecantWindow(2)
    for v in (1.0, 2.0, 3.0):
        w.push_pair(np.array([v]), np.array([v]))
    assert w.count == 2
    S, Y = w.matrices_with(np.array([9.0]), np.array([-9.0]))
    assert S[0].tolist() == [2.0, 3.0, 9.0]
    assert Y[0].tolist() == [2.0, 3.0, -9.0]


def test_default_capacity_keeps_last_five():
    w = SecantWindow(5)
    for v in range(7):
        w.push_pair(np.full(2, float(v)), np.full(2, float(v)))
    assert w.count == 5
    S, _ = w.matrices_with(np.zeros(2), np.zeros(2))
    assert S[0].tolist() == [2.0, 3.0, 4.0, 5.0, 6.0, 0.0]


def test_push_rejects_mismatched_pair():
    w = SecantWindow(2)
    with pytest.raises(ValueError):
        w.push_pair(np.zeros(2), np.zeros(3))
    w.push_pair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        w.push_pair(np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# minimum-norm least squares
# ---------------------------------------------------------------------------

def test_identity_system():
    nu = min_norm_ls(np.eye(2), np.array([1.0, 2.0]))
    np.testing.assert_allclose(nu, [1.0, 2.0], atol=1e-14)


def test_single_column_projection():
    Y = np.array([[1.0], [0.0]])
    nu = min_norm_ls(Y, np.array([2.0, 3.0]))
    np.testing.assert_allclose(nu, [2.0], atol=1e-14)


def test_rank_one_pair_of_columns():
    Y = np.array([[1.0, 2.0], [2.0, 4.0]])
    nu = min_norm_ls(Y, np.array([1.0, 2.0]))
    np.testing.assert_allclose(nu, [0.2, 0.4], atol=1e-12)


def test_zero_matrix_gives_zero():
    nu = min_norm_ls(np.zeros((3, 2)), np.ones(3))
    np.testing.assert_array_equal(nu, np.zeros(2))


def test_agrees_with_pinv_oracle():
    rng = np.random.default_rng(101)
    for trial in range(200):
        Y, b = random_instance(rng, rank_deficient=trial % 2 == 0)
        nu = min_norm_ls(Y, b)
        nu_star = pinv_solution(Y, b)
        assert abs(np.linalg.norm(Y @ nu - b) - np.linalg.norm(Y @ nu_star - b)) <= 1e-8
        assert abs(np.linalg.norm(nu) - np.linalg.norm(nu_star)) <= 1e-8


def test_minimality_along_null_space():
    rng = np.random.default_rng(33)
    c = rng.standard_normal(4)
    d = rng.standard_normal(4)
    Y = np.column_stack([c, c, d])          # null vector (1, -1, 0)
    b = rng.standard_normal(4)
    nu = min_norm_ls(Y, b)
    res = np.linalg.norm(Y @ nu - b)
    null = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for t in (-2.0, -0.3, 0.7, 5.0):
        shifted = nu + t * null
        assert np.linalg.norm(Y @ shifted - b) == pytest.approx(res, abs=1e-10)
        assert np.linalg.norm(nu) <= np.linalg.norm(shifted) + 1e-12


def test_basis_is_orthonormal():
    rng = np.random.default_rng(55)
    for trial in range(100):
        Y, _ = random_instance(rng, rank_deficient=trial % 3 == 0)
        orth = orthogonalize_columns(Y)
        if orth.rank == 0:
            continue
        gram = orth.q.T @ orth.q
        assert np.max(np.abs(gram - np.eye(orth.rank))) <= 1e-12


def test_rank_detection_on_constructed_cases():
    c = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([0.0, 1.0, 0.0, 1.0])
    assert orthogonalize_columns(np.column_stack([c, c, d])).rank == 2
    assert orthogonalize_columns(np.column_stack([c, 2.0 * c])).rank == 1
    assert orthogonalize_columns(np.zeros((4, 3))).rank == 0
    assert orthogonalize_columns(np.eye(4)).rank == 4


def bitwise_instance(rng, n, m):
    """A secant-like window: columns at scales 1e-4..1e4, sometimes with a
    duplicated, a zero or a nearly dependent column."""
    Y = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-4.0, 4.0, size=m)
    kind = int(rng.integers(4)) if m >= 2 else 0
    if kind == 1:
        Y[:, int(rng.integers(m))] = Y[:, 0]
    elif kind == 2:
        Y[:, int(rng.integers(m))] = 0.0
    elif kind == 3:
        Y[:, -1] = Y[:, 0] * 3.0 + 1e-9 * Y[:, -1]
    S = rng.standard_normal((n, m))
    return S, Y, rng.standard_normal(n), rng.standard_normal(n)


def assert_bitwise_like_reference(S, Y, x_trial, F_trial):
    nu_ref, rank_ref = reference_min_norm_ls(Y, F_trial)
    assert np.array_equal(min_norm_ls(Y, F_trial), nu_ref)

    window = SecantWindow(6)
    for i in range(S.shape[1] - 1):
        window.push_pair(S[:, i], Y[:, i])
    seen = {}
    x_accel = accel_point(window, S[:, -1], Y[:, -1], x_trial, F_trial,
                          on_info=lambda m, r, nn: seen.update(m=m, r=r, nn=nn))
    assert np.array_equal(x_accel, x_trial - S @ nu_ref)
    assert seen["m"] == S.shape[1]
    assert seen["r"] == rank_ref
    assert seen["nn"] == float(np.linalg.norm(nu_ref))
    return rank_ref


def test_kernel_is_bitwise_the_reference():
    rng = np.random.default_rng(2024)
    ranks = set()
    for trial in range(300):
        n = int(10.0 ** rng.uniform(0.0, 4.0))
        m = trial % 6 + 1
        ranks.add(assert_bitwise_like_reference(*bitwise_instance(rng, n, m)))
    assert ranks == {1, 2, 3, 4, 5, 6}


def test_kernel_is_bitwise_the_reference_at_n_1e5():
    rng = np.random.default_rng(7)
    S, Y, x_trial, F_trial = bitwise_instance(rng, 100_000, 6)
    assert assert_bitwise_like_reference(S, Y, x_trial, F_trial) >= 5


def test_column_norms_round_like_the_squared_sum():
    rng = np.random.default_rng(11)
    for n in (1, 7, 8, 129, 1000, 40_000):
        W = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-4.0, 4.0, size=6)
        for step in range(6):
            w = W[:, step:]
            assert np.array_equal(_column_norms(w, np.empty(n)),
                                  np.sqrt((w * w).sum(axis=0)))


def test_orthogonalize_columns_leaves_input_alone():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((50, 4))
    before = Y.copy()
    orthogonalize_columns(Y)
    assert np.array_equal(Y, before)


# ---------------------------------------------------------------------------
# accelerated point
# ---------------------------------------------------------------------------

def test_secant_exact_on_linear_1d():
    w = SecantWindow(5)
    x_accel = accel_point(w, np.array([1.0]), np.array([1.0]),
                          np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(x_accel, [0.0], atol=1e-15)


def test_secant_exact_on_linear_3x3():
    rng = np.random.default_rng(77)
    A = np.eye(3) * 3.0 + 0.3 * rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    w = SecantWindow(5)
    for _ in range(3):
        s = rng.standard_normal(3)
        w.push_pair(s, A @ s)                 # residual differences of Ax - b
    s_k = rng.standard_normal(3)
    y_k = A @ s_k
    x_trial = rng.standard_normal(3)
    F_trial = A @ x_trial - b
    x_accel = accel_point(w, s_k, y_k, x_trial, F_trial)
    assert np.linalg.norm(A @ x_accel - b) <= 1e-10 * np.linalg.norm(b)


def test_duplicate_trial_column_is_harmless():
    rng = np.random.default_rng(88)
    s1 = rng.standard_normal(4)
    y1 = rng.standard_normal(4)
    F_trial = rng.standard_normal(4)
    x_trial = rng.standard_normal(4)

    w = SecantWindow(5)
    w.push_pair(s1, y1)
    x_dup = accel_point(w, s1.copy(), y1.copy(), x_trial, F_trial)
    assert np.isfinite(x_dup).all()

    # model residual must be no worse than with a single copy
    Y2 = np.column_stack([y1, y1])
    nu2 = min_norm_ls(Y2, F_trial)
    nu1 = min_norm_ls(y1[:, None], F_trial)
    assert np.linalg.norm(Y2 @ nu2 - F_trial) <= \
        np.linalg.norm(y1[:, None] @ nu1 - F_trial) + 1e-12


def test_zero_rank_returns_trial_point():
    w = SecantWindow(5)
    x_trial = np.array([1.0, 2.0])
    out = accel_point(w, np.zeros(2), np.zeros(2), x_trial, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(out, x_trial)


def test_info_callback_reports_shape():
    seen = {}
    w = SecantWindow(5)
    w.push_pair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    accel_point(w, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                np.zeros(2), np.array([1.0, 1.0]),
                on_info=lambda m, r, nn: seen.update(m=m, r=r, nn=nn))
    assert seen["m"] == 2 and seen["r"] == 2
    assert seen["nn"] == pytest.approx(np.sqrt(2.0))
