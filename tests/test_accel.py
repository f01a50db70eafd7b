"""Tests for the secant window and the minimum-norm least-squares solve."""

import tracemalloc
import weakref

import numpy as np
import pytest

from dfsane.accel import BLOCK_ROWS, SecantWindow, accel_point


def pinv_solution(Y, b):
    """Independent oracle: dense SVD pseudoinverse (test harness only)."""
    return np.linalg.pinv(Y) @ b


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

def test_window_capacity_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        SecantWindow(0)


def test_push_single_pair():
    w = SecantWindow(3)
    w.push_pair(np.array([1.0]), np.array([2.0]))
    assert w.count == 1


def check_push(w, s, y, solved_factored_trial=False):
    """A push wrote s and y into the newest columns of S and Y, bit for bit.
    A kept trial that a factored solve formed is not stored whole: its y
    comes from the factors, so it is checked to a tolerance."""
    S, Y = w.matrices_with(np.zeros_like(s), np.zeros_like(y))
    j = w._order()[-1]                       # the newest pair's row
    assert S[:, j].tobytes() == s.tobytes()
    if solved_factored_trial:
        np.testing.assert_allclose(Y[:, j], y, rtol=0.0, atol=1e-12)
    else:
        assert Y[:, j].tobytes() == y.tobytes()


def pairs_of(S, Y):
    """The (s, y) columns of S and Y as a sorted list: window contents up to
    a common column permutation."""
    return sorted(zip(map(tuple, S.T), map(tuple, Y.T)))


def test_eviction_order():
    w = SecantWindow(2)
    for v in (1.0, 2.0, 3.0):
        w.push_pair(np.array([v]), np.array([10.0 * v]))
    assert w.count == 2
    S, Y = w.matrices_with(np.array([9.0]), np.array([-9.0]))
    assert pairs_of(S, Y) == sorted([((2.0,), (20.0,)), ((3.0,), (30.0,)),
                                     ((9.0,), (-9.0,))])


def test_default_capacity_keeps_last_five():
    w = SecantWindow(5)
    for v in range(7):
        w.push_pair(np.full(2, float(v)), np.full(2, -float(v)))
    assert w.count == 5
    S, Y = w.matrices_with(np.zeros(2), np.ones(2))
    want = [((v, v), (-v, -v)) for v in (2.0, 3.0, 4.0, 5.0, 6.0)]
    assert pairs_of(S, Y) == sorted(want + [((0.0, 0.0), (1.0, 1.0))])


def test_wraparound_matches_pinv_over_the_last_pairs():
    rng = np.random.default_rng(9)
    n, capacity = 8, 3
    w = SecantWindow(capacity)
    pushed = []
    for _ in range(3 * capacity + 1):
        pair = (rng.standard_normal(n), rng.standard_normal(n))
        w.push_pair(*pair)
        pushed.append(pair)
        s_k, y_k, x_trial, F_trial = (rng.standard_normal(n) for _ in range(4))
        S = np.column_stack([s for s, _ in pushed[-capacity:]] + [s_k])
        Y = np.column_stack([y for _, y in pushed[-capacity:]] + [y_k])
        want = x_trial - S @ pinv_solution(Y, F_trial)
        got = accel_point(w, s_k, y_k, x_trial, F_trial)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_push_pair_copies_signed_zero_nan_and_inf_bit_for_bit():
    # push_pair and an outside extra pair are written as (s - 0, y - 0)
    s = np.array([-0.0, np.nan, np.inf, -np.inf, 1.5])
    y = np.array([np.nan, -0.0, -np.inf, np.inf, -2.5])
    w = SecantWindow(2)
    assert w.push_pair(s, y) is None
    check_push(w, s, y)
    S, Y = w.matrices_with(y, s)
    assert (S[:, -1].tobytes(), Y[:, -1].tobytes()) == (y.tobytes(), s.tobytes())


def test_push_rejects_mismatched_pair():
    w = SecantWindow(2)
    with pytest.raises(ValueError):
        w.push_pair(np.zeros(2), np.zeros(3))
    w.push_pair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        w.push_pair(np.zeros(3), np.zeros(3))


def test_matrices_with_rejects_mismatched_extra_pair():
    w = SecantWindow(2)
    w.push_pair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        w.matrices_with(np.array([9.0]), np.array([7.0]))
    with pytest.raises(ValueError):
        accel_point(w, np.array([9.0]), np.array([7.0]), np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        w.matrices_with(np.zeros(2), np.zeros(3))
    w = SecantWindow(2)                      # a trial pair, no pushed pair yet
    w.trial_difference(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        w.matrices_with(np.array([9.0]), np.array([7.0]))


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_differences_written_in_place_match_pushed_copies(capacity):
    # The solver's path (trial_difference, its solve, then keep_trial or
    # push_difference) against accel_point and push_pair of fresh
    # differences.
    rng = np.random.default_rng(capacity)
    n = 5
    w, ref = SecantWindow(capacity), SecantWindow(capacity)
    x, F = rng.standard_normal(n), rng.standard_normal(n)
    for step in range(3 * capacity + 2):
        x_trial, F_trial = rng.standard_normal(n), rng.standard_normal(n)
        w.trial_difference(x_trial, x, F_trial, F)
        S, Y = w.matrices_with(x_trial - x, F_trial - F)
        S_ref, Y_ref = ref.matrices_with(x_trial - x, F_trial - F)
        assert S.tobytes() == S_ref.tobytes() and Y.tobytes() == Y_ref.tobytes()
        got = accel_point(w, None, None, x_trial, F_trial)
        want = accel_point(ref, x_trial - x, F_trial - F, x_trial, F_trial)
        assert got.tobytes() == want.tobytes()
        if step % 2:
            x_new, F_new = rng.standard_normal(n), rng.standard_normal(n)
            assert w.push_difference(x_new, x, F_new, F) is None
        else:
            x_new, F_new = x_trial, F_trial
            assert w.keep_trial(x_new, x) is None
        ref.push_pair(x_new - x, F_new - F)
        check_push(w, x_new - x, F_new - F)
        x, F = x_new, F_new
    assert w.count == ref.count == capacity


# ---------------------------------------------------------------------------
# minimum-norm least squares
# ---------------------------------------------------------------------------

def window_solve(Y, b):
    """(nu, rank) of Y nu = b from a window holding all but Y's last column
    as pushed pairs and the last one as the outside extra pair, the solve
    that accel_point runs; nu is in Y's column order, as no pair wraps."""
    n, m = Y.shape
    rng = np.random.default_rng(m)
    w = SecantWindow(max(m - 1, 1))
    for j in range(m - 1):
        w.push_pair(rng.standard_normal(n), Y[:, j])
    accel_point(w, rng.standard_normal(n), Y[:, -1], np.zeros(n), b)
    return w.nu, w.rank


def test_identity_system():
    nu, rank = window_solve(np.eye(2), np.array([1.0, 2.0]))
    assert rank == 2
    np.testing.assert_allclose(nu, [1.0, 2.0], atol=1e-14)


def test_single_column_projection():
    Y = np.array([[1.0], [0.0]])
    nu, _ = window_solve(Y, np.array([2.0, 3.0]))
    np.testing.assert_allclose(nu, [2.0], atol=1e-14)


def test_rank_one_pair_of_columns():
    Y = np.array([[1.0, 2.0], [2.0, 4.0]])
    nu, rank = window_solve(Y, np.array([1.0, 2.0]))
    assert rank == 1
    np.testing.assert_allclose(nu, [0.2, 0.4], atol=1e-12)


def test_zero_matrix_gives_zero():
    nu, rank = window_solve(np.zeros((3, 2)), np.ones(3))
    assert rank == 0
    np.testing.assert_array_equal(nu, np.zeros(2))


def test_agrees_with_pinv_oracle():
    rng = np.random.default_rng(101)
    for trial in range(200):
        Y, b = random_instance(rng, rank_deficient=trial % 2 == 0)
        nu, _ = window_solve(Y, b)
        nu_star = pinv_solution(Y, b)
        assert abs(np.linalg.norm(Y @ nu - b) - np.linalg.norm(Y @ nu_star - b)) <= 1e-8
        assert abs(np.linalg.norm(nu) - np.linalg.norm(nu_star)) <= 1e-8


def test_minimality_along_null_space():
    rng = np.random.default_rng(33)
    c = rng.standard_normal(4)
    d = rng.standard_normal(4)
    Y = np.column_stack([c, c, d])          # null vector (1, -1, 0)
    b = rng.standard_normal(4)
    nu, rank = window_solve(Y, b)
    assert rank == 2
    res = np.linalg.norm(Y @ nu - b)
    null = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for t in (-2.0, -0.3, 0.7, 5.0):
        shifted = nu + t * null
        assert np.linalg.norm(Y @ shifted - b) == pytest.approx(res, abs=1e-10)
        assert np.linalg.norm(nu) <= np.linalg.norm(shifted) + 1e-12


def test_rank_detection_on_constructed_cases():
    c = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([0.0, 1.0, 0.0, 1.0])
    b = np.ones(4)
    assert window_solve(np.column_stack([c, c, d]), b)[1] == 2
    assert window_solve(np.column_stack([c, 2.0 * c]), b)[1] == 1
    assert window_solve(np.zeros((4, 3)), b)[1] == 0
    assert window_solve(np.eye(4), b)[1] == 4


def window_layout(rng, n, m):
    """An n x m matrix laid out as the window stores Y: a transposed view of
    C-ordered rows."""
    return rng.standard_normal((m, n)).T


def blocked_cases():
    rng = np.random.default_rng(5)
    full = window_layout(rng, BLOCK_ROWS + 1000, 6)
    dup = window_layout(rng, 2 * BLOCK_ROWS + 7, 4)
    dup[:, 3] = dup[:, 1]
    zero = window_layout(rng, 3 * BLOCK_ROWS - 5, 3)
    zero[:, 0] = 0.0
    # sigma_min / sigma_max near 1e-13: below lstsq's cutoff eps * n at this
    # n, above the cutoff eps * max(rows, m) of the small stacked-R problem.
    near = window_layout(rng, 2 * BLOCK_ROWS + 7, 4)
    near[:, 3] = near[:, 1] + 1e-13 * rng.standard_normal(near.shape[0])
    return {
        "full-rank": full,
        "duplicated-column": dup,
        "zero-column": zero,
        "nearly-dependent-column": near,
        "one-column": window_layout(rng, 2 * BLOCK_ROWS + 3, 1),
        "multiple-of-block-rows": window_layout(rng, 2 * BLOCK_ROWS, 5),
        "one-row-tail-block": window_layout(rng, BLOCK_ROWS + 1, 6),
        # Y = A B of rank 2 across 5 columns
        "low-rank-product": (rng.standard_normal((5, 2))
                             @ rng.standard_normal((2, 2 * BLOCK_ROWS + 7))).T,
    }


@pytest.mark.parametrize("case", sorted(blocked_cases()))
def test_blocked_kernel_matches_direct_lstsq(case):
    # Above BLOCK_ROWS the window keeps per-block QR factors of Y and solves
    # on the stacked R; nu is in column order, as no pair has wrapped.
    Y = blocked_cases()[case]
    b = np.random.default_rng(6).standard_normal(Y.shape[0])
    assert Y.shape[0] > BLOCK_ROWS
    nu, rank = window_solve(Y, b)
    want, _, want_rank, _ = np.linalg.lstsq(Y, b, rcond=None)
    assert rank == want_rank
    np.testing.assert_allclose(nu, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("capacity", range(1, 7))
def test_chunked_rotation_is_the_whole_block_product(capacity):
    # A pass after a full window's push drops the oldest column: it rotates
    # each block's k = m + 1 Q rows by G_i^T, a chunk of columns at a time
    # through one m-row buffer, and writes the bits of one whole-block
    # product over the first m rows.  This holds at the block widths below,
    # those of n = 1e5 (14,285 / 14,286), of n = 1e6 (16,129 / 16,130) and
    # BLOCK_ROWS, not at every width: a last chunk of one column can differ
    # in the last bits.
    for n, widths in [(28_571, {14_285, 14_286}), (32_259, {16_129, 16_130}),
                      (2 * BLOCK_ROWS, {BLOCK_ROWS})]:
        rng = np.random.default_rng(n + capacity)
        w = SecantWindow(capacity)
        for _ in range(capacity):
            w.push_pair(rng.standard_normal(n), rng.standard_normal(n))
        s, y, x_trial, F_trial = rng.standard_normal((4, n))
        accel_point(w, s, y, x_trial, F_trial)
        w.keep_trial(s, 0.0)
        qr = w._qr
        m, k = qr.m, qr.k
        assert (k, {j1 - j0 for j0, j1 in qr.blocks}) == (m + 1, widths)
        before = qr.rows.copy()
        G = np.linalg.qr(qr.R.copy()[:, :k, :m])[0]
        qr.update()
        for i, (j0, j1) in enumerate(qr.blocks):
            want = np.matmul(G[i].T, before[:k, j0:j1])
            assert qr.rows[:m, j0:j1].tobytes() == want.tobytes()
        assert qr.rows[m:].tobytes() == before[m:].tobytes()


def factor_orthogonality(w):
    """max over blocks of |Q_i^T Q_i - I| for the window's factored columns."""
    qr = w._qr
    worst = 0.0
    for j0, j1 in qr.blocks:
        Q = qr.rows[:qr.m, j0:j1]
        worst = max(worst, float(np.abs(Q @ Q.T - np.eye(qr.m)).max(initial=0.0)))
    return worst


def reference_step(pairs, s, y, x_trial, F_trial):
    """x_trial - S nu by lstsq on the columns stacked from scratch."""
    S = np.column_stack([p[0] for p in pairs] + [s])
    Y = np.column_stack([p[1] for p in pairs] + [y])
    nu, _, rank, _ = np.linalg.lstsq(Y, F_trial, rcond=None)
    return x_trial - S @ nu, rank


@pytest.mark.parametrize("capacity", [1, 3])
def test_factored_window_follows_the_solver_steps(capacity):
    # The solver's steps above BLOCK_ROWS, more than capacity pushes: the
    # trial pair is kept (keep_trial) or replaced by an accepted
    # extrapolated pair (push_difference), and the window's oldest pair is
    # dropped once it is full.  S and Y read before each solve give its point.
    n = 2 * BLOCK_ROWS + 123
    rng = np.random.default_rng(capacity)
    w, pairs = SecantWindow(capacity), []
    x, F = rng.standard_normal(n), rng.standard_normal(n)
    for step in range(3 * capacity + 3):
        x_trial, F_trial = rng.standard_normal(n), rng.standard_normal(n)
        assert w.trial_difference(x_trial, x, F_trial, F) is None
        S, Y = w.matrices_with(x_trial - x, F_trial - F)
        want, want_rank = reference_step(pairs, x_trial - x, F_trial - F, x_trial, F_trial)
        got = accel_point(w, None, None, x_trial, F_trial)
        assert (len(w.nu), w.rank) == (len(pairs) + 1, want_rank)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        nu = np.linalg.lstsq(Y, F_trial, rcond=None)[0]
        np.testing.assert_allclose(got, x_trial - S @ nu, rtol=1e-10, atol=1e-10)
        if step % 2:
            x_new, F_new = got, rng.standard_normal(n)
            assert w.push_difference(x_new, x, F_new, F) is None
        else:
            x_new, F_new = x_trial, F_trial
            assert w.keep_trial(x_new, x) is None
        pairs = (pairs + [(x_new - x, F_new - F)])[-capacity:]
        check_push(w, *pairs[-1], solved_factored_trial=step % 2 == 0)
        assert factor_orthogonality(w) <= 1e-13
        x, F = x_new, F_new
    assert w.count == capacity


def test_factored_window_slides_over_pushed_pairs():
    # Outside pairs, more than capacity of them: matrices_with forms Y from
    # the factors, and an accel_point with an outside pair makes it the
    # trial pair, whose factor column the next solve or push writes over.
    # On alternate rounds the last round's solved pair is kept first, so at
    # a full window the push finds the factor array full.
    n, capacity = BLOCK_ROWS + 4_000, 3
    rng = np.random.default_rng(12)
    w, pushed = SecantWindow(capacity), []
    for r in range(2 * capacity + 2):
        if r % 2:
            assert w.keep_trial(s_k, 0.0) is None
            pushed.append((s_k, y_k))
        pair = (rng.standard_normal(n), rng.standard_normal(n))
        w.push_pair(*pair)
        pushed.append(pair)
        s_k, y_k, x_trial, F_trial = (rng.standard_normal(n) for _ in range(4))
        want, _ = reference_step(pushed[-capacity:], s_k, y_k, x_trial, F_trial)
        for _ in range(2):
            got = accel_point(w, s_k, y_k, x_trial, F_trial)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        S, Y = w.matrices_with(s_k, y_k)
        want_S = np.column_stack([p[0] for p in pushed[-capacity:]] + [s_k])
        want_Y = np.column_stack([p[1] for p in pushed[-capacity:]] + [y_k])
        order = w._order() + [w.count]             # ring rows, oldest first
        np.testing.assert_array_equal(S[:, order], want_S)
        np.testing.assert_allclose(Y[:, order], want_Y, rtol=0.0, atol=1e-12)
        assert factor_orthogonality(w) <= 1e-13


@pytest.mark.parametrize("n", [5, 2 * BLOCK_ROWS + 123])
def test_keep_trial_pushes_only_a_pending_trial_pair(n):
    # keep_trial pushes a solved trial pair that no push has discarded since
    # trial_difference, given the trial point and x, or keep_trial(s, 0.0)
    # for an outside pair that a solve made the trial pair.  With no trial
    # pair, before its solve, after a push and a second time it raises.
    capacity = 3
    rng = np.random.default_rng(n)
    pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(capacity + 1)]
    x, F, x_trial, F_trial, x_next, F_next, s_out, y_out = (
        rng.standard_normal(n) for _ in range(8))
    s_out[1], y_out[2] = -0.0, -0.0

    def window():
        w = SecantWindow(capacity)
        for pair in pairs:
            w.push_pair(*pair)
        w.trial_difference(x_trial, x, F_trial, F)
        return w

    with pytest.raises(ValueError, match="no solved trial pair"):
        SecantWindow(capacity).keep_trial(x_trial, x)
    with pytest.raises(ValueError, match="no solved trial pair"):
        window().keep_trial(x_trial, x)
    discards = {
        "push_pair": lambda w: w.push_pair(s_out, y_out),
        "push_difference": lambda w: w.push_difference(x_next, x, F_next, F),
    }
    for name, discard in discards.items():
        w = window()
        accel_point(w, None, None, x_trial, F_trial)
        discard(w)
        with pytest.raises(ValueError, match="no solved trial pair"):
            w.keep_trial(x_trial, x)
        with pytest.raises(ValueError, match="no trial pair"):
            accel_point(w, None, None, x_trial, F_trial)

    def outside_after_solve(w):
        # the trial pair has its factor column when the outside pair comes
        accel_point(w, None, None, x_trial, F_trial)
        accel_point(w, s_out, y_out, x_trial, F_trial)

    # (the solve before keep_trial, the pair it keeps)
    trial, outside = (x_trial - x, F_trial - F), (s_out, y_out)
    keeps = {
        "solved trial pair": (lambda w: accel_point(w, None, None, x_trial, F_trial), trial),
        "outside accel_point": (lambda w: accel_point(w, s_out, y_out, x_trial, F_trial),
                                outside),
        "outside after a solve": (outside_after_solve, outside),
    }
    for name, (solve, pair) in keeps.items():
        w = window()
        solve(w)
        ends = (x_trial, x) if pair is trial else (s_out, 0.0)
        w.keep_trial(*ends)
        with pytest.raises(ValueError, match="no solved trial pair"):
            w.keep_trial(*ends)
        check_push(w, *pair, solved_factored_trial=w._qr is not None)
        want, want_rank = reference_step((pairs + [pair])[-capacity:], x_next - x_trial,
                                         F_next - F_trial, x_next, F_next)
        w.trial_difference(x_next, x_trial, F_next, F_trial)
        got = accel_point(w, None, None, x_next, F_next)
        assert w.rank == want_rank, name
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10, err_msg=name)
        if w._qr is not None:
            assert factor_orthogonality(w) <= 1e-13, name


@pytest.mark.parametrize("pushes", [1, 3, 5])
def test_kept_factored_trial_writes_only_its_own_row_of_S(pushes):
    # A solve forms the trial pair's factor column, so keep_trial forms no
    # y: of S it writes only the kept pair's ring row (x_trial - x), before
    # and after the window fills.
    n, capacity = BLOCK_ROWS + 100, 3
    rng = np.random.default_rng(pushes)
    w = SecantWindow(capacity)
    for _ in range(pushes):
        w.push_pair(rng.standard_normal(n), rng.standard_normal(n))
    x, F, x_trial, F_trial = (rng.standard_normal(n) for _ in range(4))
    w.trial_difference(x_trial, x, F_trial, F)
    accel_point(w, None, None, x_trial, F_trial)
    before, i = w._s_rows.copy(), pushes % capacity
    w.keep_trial(x_trial, x)
    s, y = x_trial - x, F_trial - F
    others = [r for r in range(capacity) if r != i]
    assert w._s_rows[others].tobytes() == before[others].tobytes()
    assert w._s_rows[i].tobytes() == s.tobytes()
    check_push(w, s, y, solved_factored_trial=True)


@pytest.mark.parametrize("n", [5, BLOCK_ROWS + 100])
@pytest.mark.parametrize("capacity", [1, 3])
def test_point_in_the_spare_row_matches_a_new_array(capacity, n):
    # The solver's steps with the point written into spare_row(), more than
    # capacity of them in both layouts: the point is copied out before
    # push_difference overwrites its row, or left there when keep_trial
    # pushes the trial pair.  A twin window given no out sees the same bytes.
    rng = np.random.default_rng(capacity)
    w, twin = SecantWindow(capacity), SecantWindow(capacity)
    x, F = rng.standard_normal(n), rng.standard_normal(n)
    for step in range(3 * capacity + 2):
        x_trial, F_trial = rng.standard_normal(n), rng.standard_normal(n)
        for v in (w, twin):
            v.trial_difference(x_trial, x, F_trial, F)
        want = accel_point(twin, None, None, x_trial, F_trial)
        got = accel_point(w, None, None, x_trial, F_trial, out=w.spare_row())
        assert np.shares_memory(got, w._s_rows)
        assert got.tobytes() == want.tobytes()
        assert (w.nu.tobytes(), w.rank) == (twin.nu.tobytes(), twin.rank)
        if step % 2:
            x_new, F_new = got.copy(), rng.standard_normal(n)
            for v in (w, twin):
                v.push_difference(x_new, x, F_new, F)
        else:
            x_new, F_new = x_trial, F_trial
            for v in (w, twin):
                v.keep_trial(x_new, x)
        zero = np.zeros(n)
        assert ([M.tobytes() for M in w.matrices_with(zero, zero)]
                == [M.tobytes() for M in twin.matrices_with(zero, zero)])
        x, F = x_new, F_new
    assert w.count == capacity


@pytest.mark.parametrize("n", [5, BLOCK_ROWS + 100])
@pytest.mark.parametrize("capacity", [1, 3])
def test_points_without_out_leave_a_full_window_unchanged(capacity, n):
    # The kernel microbench's pattern: repeated calls with one outside pair
    # on a full window, where the spare row is the oldest pair's column of S.
    rng = np.random.default_rng(capacity)
    w = SecantWindow(capacity)
    for _ in range(capacity + 1):
        w.push_pair(rng.standard_normal(n), rng.standard_normal(n))
    s, y, x, F = (rng.standard_normal(n) for _ in range(4))
    S, Y = (M.copy() for M in w.matrices_with(s, y))
    points = [accel_point(w, s, y, x, F).tobytes() for _ in range(3)]
    assert points == points[:1] * 3
    S_after, Y_after = w.matrices_with(s, y)
    assert S_after.tobytes() == S.tobytes()
    if w._qr is None:
        assert Y_after.tobytes() == Y.tobytes()
    else:
        # Y comes from the factors, which the first call's pass updated
        np.testing.assert_allclose(Y_after, Y, rtol=0.0, atol=1e-12)


def full_window_with_trial(rng, n, capacity=5):
    """A window of capacity pushed past capacity, and its trial pair, as the
    solver leaves them before the extrapolated point: (window, x, F,
    x_trial, F_trial).  Its spare row is then the oldest pair's column of S."""
    w = SecantWindow(capacity)
    x, F = rng.standard_normal(n), rng.standard_normal(n)
    for _ in range(capacity + 1):
        x_new, F_new = rng.standard_normal(n), rng.standard_normal(n)
        w.push_difference(x_new, x, F_new, F)
        x, F = x_new, F_new
    x_trial, F_trial = rng.standard_normal(n), rng.standard_normal(n)
    w.trial_difference(x_trial, x, F_trial, F)
    assert w.count == capacity
    assert np.shares_memory(w.spare_row(), w._s_rows[w._order()[0]])
    return w, x, F, x_trial, F_trial


@pytest.mark.parametrize("n", [BLOCK_ROWS + 3, 50_000])
def test_blocked_point_in_the_spare_row_is_the_whole_product(n):
    # The point is formed by row chunks, in the spare row each chunk's rows
    # of the oldest column copied before they are written; both sizes end
    # on a short chunk.  A twin window given no out leaves its S whole, and
    # S, taken before its solve, gives x_trial - S nu in one product.
    w, x, F, x_trial, F_trial = full_window_with_trial(np.random.default_rng(n), n)
    twin = full_window_with_trial(np.random.default_rng(n), n)[0]
    assert w._qr is not None
    S, _ = twin.matrices_with(x_trial - x, F_trial - F)
    new_array = accel_point(twin, None, None, x_trial, F_trial)
    whole = x_trial - np.matmul(S, twin.nu)
    got = accel_point(w, None, None, x_trial, F_trial, out=w.spare_row())
    assert got.tobytes() == whole.tobytes() == new_array.tobytes()


def test_point_in_the_spare_row_of_a_full_window_allocates_less_than_a_vector():
    # numpy buffered the whole product S nu in a temporary n-vector when it
    # was written into the spare row, a column of S; the blocked product
    # uses one block-sized buffer.  What is left is the factored pass's
    # block scratch, about 0.27 n-vectors at this n.
    n = 300_000
    w, _, _, x_trial, F_trial = full_window_with_trial(np.random.default_rng(3), n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        accel_point(w, None, None, x_trial, F_trial, out=w.spare_row())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (8 * n) < 1.0


def window_and_trial(n, capacity=3):
    """A window pushed once past capacity, and the trial pair it was given:
    (window, x, F, x_trial, F_trial).  Its first solve rotates the factors."""
    rng = np.random.default_rng(n)
    w = SecantWindow(capacity)
    for _ in range(capacity + 1):
        w.push_pair(rng.standard_normal(n), rng.standard_normal(n))
    x, F, x_trial, F_trial = (rng.standard_normal(n) for _ in range(4))
    w.trial_difference(x_trial, x, F_trial, F)
    return w, x, F, x_trial, F_trial


@pytest.mark.parametrize("n", [7, BLOCK_ROWS + 100])
def test_solve_releases_the_trial_residuals(n):
    # The window holds the trial pair's (F_new, F) until its solve has its
    # y; then the caller's references are the last ones, and keep_trial
    # still pushes the pair.
    w, x, F, x_trial, F_trial = window_and_trial(n)
    s, y = x_trial - x, F_trial - F
    accel_point(w, None, None, x_trial, F_trial)
    refs = [weakref.ref(F_trial), weakref.ref(F)]
    del F, F_trial
    assert [ref() is None for ref in refs] == [True, True]
    w.keep_trial(x_trial, x)
    check_push(w, s, y, solved_factored_trial=w._qr is not None)


@pytest.mark.parametrize("n", [7, BLOCK_ROWS + 100])
def test_solve_releases_the_trial_point(n):
    # S has no row for the trial step: it is formed from x_trial - x where
    # it is read, and the solve lets go of x_trial with the residuals, so a
    # caller that drops x_trial frees it.  keep_trial takes the rebuilt one.
    w, x, F, x_trial, F_trial = window_and_trial(n)
    s, y, rebuilt = x_trial - x, F_trial - F, x_trial.copy()
    accel_point(w, None, None, x_trial, F_trial, out=w.spare_row())
    ref = weakref.ref(x_trial)
    del x_trial
    assert ref() is None
    w.keep_trial(rebuilt, x)
    check_push(w, s, y, solved_factored_trial=w._qr is not None)


@pytest.mark.parametrize("bad", ["x_trial", "F_trial", "out"])
@pytest.mark.parametrize("n", [10, 40_000])
def test_point_rejects_a_trial_of_another_length(n, bad):
    # x_trial, F_trial and out are checked against the pair length before the
    # window changes, for the trial pair and for an outside pair, and a
    # half-given outside pair is no pair (not the window's trial pair): each
    # bad call is a ValueError, and the next solve is bit for bit that of a
    # twin window that never got one.
    w, x, F, x_trial, F_trial = window_and_trial(n)
    twin = window_and_trial(n)[0]
    s, y = x_trial - x, F_trial - F
    for wrong in (n - 1, n + 5):
        args = {"x_trial": x_trial, "F_trial": F_trial, bad: np.ones(wrong)}
        for pair in [(None, None), (s, y)]:
            with pytest.raises(ValueError, match="must have the pair length"):
                accel_point(w, *pair, **args)
    for pair in [(None, y), (s, None)]:
        with pytest.raises(ValueError, match="s and y must be vectors of equal length"):
            accel_point(w, *pair, x_trial, F_trial)
    got = accel_point(w, None, None, x_trial, F_trial)
    want = accel_point(twin, None, None, x_trial, F_trial)
    assert ((got.tobytes(), w.nu.tobytes(), w.rank)
            == (want.tobytes(), twin.nu.tobytes(), twin.rank))


@pytest.mark.parametrize("call, arg, extra", [
    ("push_difference", 2, -1), ("push_difference", 2, 1),
    ("push_difference", 3, -1), ("push_difference", 3, 1),
    ("trial_difference", 3, -1), ("trial_difference", 3, 1), ("keep_trial", 0, -1),
])
@pytest.mark.parametrize("n", [10, 40_000])
def test_a_vector_of_another_length_leaves_the_window_unchanged(n, call, arg, extra):
    # Every window method checks all of its vectors (argument arg, of
    # length n + extra, is the bad one) before it writes: the call is a
    # ValueError, and the window still holds its trial pair, whose solve is
    # bit for bit that of a twin window that never got the call (for
    # keep_trial: the good keep_trial, then the next trial pair's solve).
    w, x, F, x_trial, F_trial = window_and_trial(n)
    twin = window_and_trial(n)[0]
    args = [x_trial, x, F_trial, F]
    if call == "keep_trial":
        for v in (w, twin):
            accel_point(v, None, None, x_trial, F_trial)
        args = args[:2]
    args[arg] = np.ones(n + extra)
    with pytest.raises(ValueError, match="must have the pair length"):
        getattr(w, call)(*args)
    if call == "keep_trial":
        for v in (w, twin):
            v.keep_trial(x_trial, x)
            v.trial_difference(x_trial, x, F_trial, F)
    got = accel_point(w, None, None, x_trial, F_trial)
    want = accel_point(twin, None, None, x_trial, F_trial)
    assert ((got.tobytes(), w.nu.tobytes(), w.rank)
            == (want.tobytes(), twin.nu.tobytes(), twin.rank))


@pytest.mark.parametrize("n", [7, BLOCK_ROWS + 100])
def test_second_solve_of_one_trial_pair_raises(n):
    # The first solve released the trial point, so there is no s to form.
    w, _, _, x_trial, F_trial = window_and_trial(n)
    accel_point(w, None, None, x_trial, F_trial)
    with pytest.raises(ValueError, match="trial pair was solved"):
        accel_point(w, None, None, x_trial, F_trial)


@pytest.mark.parametrize("n", [7, BLOCK_ROWS + 100])
def test_matrices_with_leaves_the_trial_pair_alone(n):
    # matrices_with only reads the window: called with an outside pair
    # before and after the trial pair's solve, it leaves the point, nu, the
    # rank and, after keep_trial, S and Y those of a twin window without the
    # calls.
    w, x, F, x_trial, F_trial = window_and_trial(n)
    twin = window_and_trial(n)[0]
    s, y = np.random.default_rng(n + 1).standard_normal((2, n))
    with pytest.raises(ValueError):
        w.matrices_with(None, None)
    w.matrices_with(s, y)
    got = accel_point(w, None, None, x_trial, F_trial)
    w.matrices_with(s, y)
    assert got.tobytes() == accel_point(twin, None, None, x_trial, F_trial).tobytes()
    for v in (w, twin):
        v.keep_trial(x_trial, x)
    assert (w.nu.tobytes(), w.rank) == (twin.nu.tobytes(), twin.rank)
    zero = np.zeros(n)
    assert ([M.tobytes() for M in w.matrices_with(zero, zero)]
            == [M.tobytes() for M in twin.matrices_with(zero, zero)])


@pytest.mark.parametrize("n, m", [(1, 1), (10, 6), (BLOCK_ROWS, 1), (BLOCK_ROWS, 6)])
def test_direct_path_up_to_block_rows_is_bitwise_lstsq(n, m):
    rng = np.random.default_rng(n + m)
    Y = window_layout(rng, n, m)
    b = rng.standard_normal(n)
    nu, rank = window_solve(Y, b)
    want, _, want_rank, _ = np.linalg.lstsq(Y, b, rcond=None)
    assert rank == want_rank
    assert nu.tobytes() == want.tobytes()


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
    nu2, _ = window_solve(Y2, F_trial)
    nu1, _ = window_solve(y1[:, None], F_trial)
    assert np.linalg.norm(Y2 @ nu2 - F_trial) <= \
        np.linalg.norm(y1[:, None] @ nu1 - F_trial) + 1e-12


def test_zero_rank_returns_trial_point():
    w = SecantWindow(5)
    x_trial = np.array([1.0, 2.0])
    out = accel_point(w, np.zeros(2), np.zeros(2), x_trial, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(out, x_trial)


def test_window_keeps_rank_and_nu_of_its_solve():
    w = SecantWindow(5)
    assert w.rank is None and w.nu is None
    w.push_pair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    accel_point(w, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                np.zeros(2), np.array([1.0, 1.0]))
    assert len(w.nu) == 2 and w.rank == 2
    assert np.linalg.norm(w.nu) == pytest.approx(np.sqrt(2.0))
