import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import DiscreteMarket, DomainError, SingularMatrix, SizeError, hedge_matrix
from delayed_hedge.solver import solve_a, weights_b
from delayed_hedge.toeplitz import (
    MINOR_ENUMERATION_LIMIT,
    SymToeplitz,
    check_vanishing_minors,
    dense_det,
    band_to_dense,
    dense_inverse,
    det_closed_form,
    inverse_band,
    inverse_via_v,
    log_det_closed_form,
    lower_toeplitz,
    v_vector,
)


def market(n, delay, sigma_hat, mu=0.0):
    return DiscreteMarket(n=n, delay=delay, mu=mu, sigma=1.0, sigma_hat=sigma_hat)


def test_build_identity_when_vols_agree():
    m = market(5, 2, 1.0)
    assert np.array_equal(hedge_matrix(m).to_dense(), np.eye(5))


def test_build_scalar_matrix_for_no_delay():
    # sigma=1, sigma_hat=2 gives a = -0.75 and A = 0.25 I
    m = market(4, 0, 2.0)
    np.testing.assert_allclose(hedge_matrix(m).to_dense(), 0.25 * np.eye(4), atol=0)


def test_build_geometric_tail_for_unit_delay():
    m = market(5, 1, np.sqrt(2.0))
    a = solve_a(m)
    A = hedge_matrix(m).to_dense()
    # direct recursion oracle: b_i = a (a/(a+1))^(i-1) for D = 1
    expected = [a * (a / (a + 1.0)) ** i for i in range(4)]
    np.testing.assert_allclose(np.diag(A, 1), expected[:1] * 4, rtol=0, atol=0)
    np.testing.assert_allclose(A[0, 1:], expected, rtol=1e-15)
    assert A[0, 0] == a + 1.0


def test_v_vector_solves_unit_equation():
    # sum_j v_j b_|i-j| = delta_i0 row by row
    m = market(7, 2, 0.8)
    a = solve_a(m)
    A = hedge_matrix(m).to_dense()
    v = np.pad(v_vector(a, 2), (0, 4))  # the three taps and the zeros past them
    np.testing.assert_allclose(A @ v, np.eye(7)[0], atol=1e-14)


def test_v_vector_rejects_root_at_boundary():
    with pytest.raises(DomainError):
        v_vector(-0.5, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: v_vector(a, 1),
        lambda a: log_det_closed_form(a, 1, 5),
        lambda a: weights_b(market(5, 1, 1.3), a, 4),
    ],
    ids=["v_vector", "log_det_closed_form", "weights_b"],
)
def test_root_domain_has_one_rule_and_one_message(call):
    for a in (-0.5, -0.6):  # on and past a = -1/(D+1) for D = 1
        with pytest.raises(DomainError, match=rf"^a = {a} violates a > -1/\(D\+1\) for D = 1$"):
            call(a)
    call(-0.49)


def test_inverse_identity_cases():
    assert np.array_equal(inverse_via_v(0.0, 2, 6), np.eye(6))
    np.testing.assert_allclose(inverse_via_v(0.5, 0, 4), np.eye(4) / 1.5, rtol=1e-15)


def test_inverse_matches_dense_oracle():
    m = market(6, 2, 0.8)
    a = solve_a(m)
    got = inverse_via_v(a, 2, 6)
    want = dense_inverse(hedge_matrix(m).to_dense())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_det_closed_form_cases():
    assert det_closed_form(0.0, 3, 8) == 1.0
    # D = 0: (1 + a)^n with a = sigma^2/sigma_hat^2 - 1
    assert det_closed_form(-0.75, 0, 4) == pytest.approx(0.25**4, rel=1e-15)
    m = market(6, 2, 1.3)
    a = solve_a(m)
    assert det_closed_form(a, 2, 6) == pytest.approx(
        dense_det(hedge_matrix(m).to_dense()), rel=1e-12
    )


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=24),
    delay=st.integers(min_value=0, max_value=6),
    sigma_hat=st.floats(min_value=0.3, max_value=3.0),
)
def test_inverse_and_det_identities_sampled(n, delay, sigma_hat):
    if delay >= n:
        return
    m = market(n, delay, sigma_hat)
    a = solve_a(m)
    A = hedge_matrix(m).to_dense()
    inv = inverse_via_v(a, delay, n)
    dense = dense_inverse(A)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(inv - dense)) <= 1e-9 * scale
    assert det_closed_form(a, delay, n) == pytest.approx(dense_det(A), rel=1e-9)
    # entry-sum and trace identities
    assert inv.sum() == pytest.approx(n * sigma_hat**2, rel=1e-9)
    assert np.trace(inv) == pytest.approx(n * (1.0 - a * sigma_hat**2), rel=1e-9)
    # the LAPACK inverse is D-banded too (inverse_via_v writes exact zeros off the band)
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > delay
    assert np.all(np.abs(dense[off_band]) <= 1e-10 * scale)


def test_vanishing_minors_holds_for_model_matrix():
    m = market(6, 1, 1.4)
    assert check_vanishing_minors(hedge_matrix(m), 1, tol=1e-9)
    m = market(8, 2, 0.7)
    assert check_vanishing_minors(hedge_matrix(m), 2, tol=1e-9)


def test_vanishing_minors_identity_structure():
    assert check_vanishing_minors(SymToeplitz(np.eye(6)[0]), 2, tol=1e-12)


def test_vanishing_minors_detects_perturbation():
    m = market(6, 1, 1.4)
    row = hedge_matrix(m).first_row.copy()
    row[3] += 0.01
    assert not check_vanishing_minors(SymToeplitz(row), 1, tol=1e-9)


def test_vanishing_minors_size_guard():
    with pytest.raises(SizeError):
        check_vanishing_minors(SymToeplitz(np.eye(13)[0]), 1)


@pytest.mark.parametrize("delay", [-1, -3])
def test_vanishing_minors_rejects_a_negative_delay(delay):
    with pytest.raises(DomainError, match=rf"^delay must be non-negative, got {delay}$"):
        check_vanishing_minors(SymToeplitz(np.eye(6)[0]), delay)


def _pairwise_minors(matrix, delay, tol):
    """The per-pair ``np.ix_`` enumeration the single gather replaced: (verdict, [(minors, dets)])."""
    n = matrix.n
    k = delay + 1
    if k > n:
        return True, []
    dense = matrix.to_dense()
    subsets = list(combinations(range(n), k))  # tuples: np.ix_ gathers the same entries, the filter runs faster
    pairs = [(rows, cols) for rows in subsets for cols in subsets if rows[0] > cols[-1] - delay]
    sub = np.array([dense[np.ix_(r, c)] for r, c in pairs]).reshape(-1, k, k)  # (0, k, k) without pairs
    dets = np.linalg.det(sub)
    scale = np.maximum(np.prod(np.linalg.norm(sub, axis=2), axis=1), 1e-300)
    return not np.any(np.abs(dets) > tol * scale), [(sub, dets)]


def _gathered_minors(monkeypatch, matrix, delay, tol):
    """``check_vanishing_minors`` with the minors it stacks and the determinants it gets recorded."""
    det = np.linalg.det
    calls = []

    def recording_det(sub):
        dets = det(sub)
        calls.append((sub.copy(), dets))
        return dets

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "det", recording_det)
        verdict = check_vanishing_minors(matrix, delay, tol=tol)
    return verdict, calls


@pytest.mark.parametrize("n", range(2, MINOR_ENUMERATION_LIMIT + 1))
def test_gathered_minors_repeat_the_pairwise_enumeration_bit_for_bit(monkeypatch, n):
    rng = np.random.default_rng(n)
    for delay in range(n):
        for sigma_hat in (rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0)):
            row = hedge_matrix(market(n, delay, sigma_hat)).first_row
            bumped = row.copy()
            bumped[-1] += 0.01  # the off-band entry when delay < n - 1, an in-band one at delay = n - 1
            for matrix in (SymToeplitz(row), SymToeplitz(bumped)):
                want_verdict, want = _pairwise_minors(matrix, delay, 1e-9)
                got_verdict, got = _gathered_minors(monkeypatch, matrix, delay, 1e-9)
                assert got_verdict == want_verdict
                assert len(got) == len(want)
                for (got_minors, got_dets), (want_minors, want_dets) in zip(got, want):
                    assert np.array_equal(got_minors, want_minors)
                    assert np.array_equal(got_dets, want_dets)


@pytest.mark.parametrize("delay", range(1, 11))
def test_vanishing_minors_detect_an_off_band_entry_at_the_cap(delay):
    row = hedge_matrix(market(12, delay, 1.3)).first_row.copy()
    assert check_vanishing_minors(SymToeplitz(row), delay, tol=1e-9)
    row[delay + 1] += 0.01
    assert not check_vanishing_minors(SymToeplitz(row), delay, tol=1e-9)


class _DenseView:
    """A matrix given by its dense entries, for perturbations no Toeplitz first row can make."""

    def __init__(self, dense):
        self.dense = dense
        self.n = len(dense)

    def to_dense(self):
        return self.dense


@pytest.mark.parametrize("delay", [3, 4, 5])
def test_vanishing_minors_detect_a_corner_entry_in_the_last_chunk(delay):
    # entry (11, 10) lies only in the minors of the last row subset {11 - D, ..., 11},
    # the end of the row-major pair order
    n = 12
    dense = hedge_matrix(market(n, delay, 1.3)).to_dense()
    dense[n - 1, n - 2] += 0.01
    dense[n - 2, n - 1] += 0.01
    assert not check_vanishing_minors(_DenseView(dense), delay, tol=1e-9)


def test_vanishing_minors_peak_memory_at_the_cap():
    # n = 12, D = 5 is the largest case in both time and memory; see MINOR_ENUMERATION_LIMIT
    matrix = hedge_matrix(market(MINOR_ENUMERATION_LIMIT, 5, 1.3))
    check_vanishing_minors(matrix, 5)  # numpy's linalg loaded outside the trace
    tracemalloc.start()
    try:
        assert check_vanishing_minors(matrix, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_dense_oracles():
    np.testing.assert_allclose(dense_inverse(np.eye(3)), np.eye(3))
    assert dense_det(np.eye(3)) == pytest.approx(1.0)
    np.testing.assert_allclose(dense_inverse(2.0 * np.eye(2)), 0.5 * np.eye(2))
    assert dense_det(2.0 * np.eye(2)) == pytest.approx(4.0)
    rng = np.random.default_rng(7)
    base = rng.normal(size=(5, 5))
    spd = base @ base.T + 5.0 * np.eye(5)
    np.testing.assert_allclose(spd @ dense_inverse(spd), np.eye(5), atol=1e-10)


def test_dense_oracles_reject_singular():
    for singular in (np.ones((3, 3)), np.zeros((2, 2))):
        for oracle in (dense_inverse, dense_det):
            with pytest.raises(SingularMatrix):
                oracle(singular)
    for shape in ((2, 3), (0, 0), (4,)):
        with pytest.raises(DomainError):
            dense_inverse(np.ones(shape))


def test_dense_oracles_read_the_condition_off_their_one_inverse(monkeypatch):
    # cond(A, 1) inverts A once more; the oracles take norm(A, 1) norm(A^-1, 1), the same value
    rng = np.random.default_rng(3)
    matrices = [hedge_matrix(DiscreteMarket(n=n, delay=d, mu=0.1, sigma=1.0, sigma_hat=1.3)).to_dense()
                for n, d in ((4, 1), (16, 3), (32, 31))] + [rng.normal(size=(6, 6))]
    conds = [np.linalg.cond(matrix, 1) for matrix in matrices]
    inverses = [np.linalg.inv(matrix) for matrix in matrices]
    dets = [np.linalg.det(matrix) for matrix in matrices]

    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond inverts the matrix a second time")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    for matrix, cond, inverse, det in zip(matrices, conds, inverses, dets):
        got = dense_inverse(matrix)
        assert np.array_equal(got, inverse)
        assert np.linalg.norm(matrix, 1) * np.linalg.norm(got, 1) == cond
        assert dense_det(matrix) == det
    # diag(1, 1e-13) has condition 1e13 and diag(1, 1e-11) 1e11, across the limit of 1e12
    with pytest.raises(SingularMatrix, match="condition"):
        dense_inverse(np.diag([1.0, 1e-13]))
    assert np.array_equal(dense_inverse(np.diag([1.0, 1e-11])), np.diag([1.0, 1e11]))


def _row_recurrence(a, delay, n):
    """The dense row recurrence ``inverse_band`` replaced, kept as its bit-for-bit reference."""
    v = np.pad(v_vector(a, delay), (0, n - delay - 1))
    v0 = v[0]
    inv = np.empty((n, n))
    inv[0, :] = v
    inv[:, 0] = v
    for i in range(1, n):
        inv[i, 1:] = inv[i - 1, : n - 1] + (v[i] * v[1:] - v[n - i] * v[n - 1 : 0 : -1]) / v0
    return inv


BAND_CASES = [(n, d) for n in (1, 2, 3, 8, 33, 200) for d in sorted({0, 1, n // 2, n - 1}) if d < n]


@pytest.mark.parametrize("sigma_hat", [0.6, 1.4])
@pytest.mark.parametrize("n, delay", BAND_CASES)
def test_inverse_band_repeats_the_row_recurrence_bit_for_bit(n, delay, sigma_hat):
    a = solve_a(market(n, delay, sigma_hat))
    reference = _row_recurrence(a, delay, n)
    band = inverse_band(v_vector(a, delay), n)
    assert band.shape == (delay + 1, n)
    for d in range(delay + 1):
        assert np.array_equal(band[d, : n - d], np.diagonal(reference, -d))
        assert np.all(band[d, n - d :] == 0.0)
    dense = inverse_via_v(a, delay, n)
    assert dense.tobytes() == reference.tobytes()
    assert np.array_equal(band_to_dense(band), reference)


def test_inverse_band_rejects_a_delay_outside_the_horizon():
    for delay in (-1, 4):
        with pytest.raises(DomainError, match="need 0 <= delay < n"):
            inverse_via_v(0.1, delay, 4)
    for taps in (np.zeros(0), np.ones(5)):  # D = -1 and D = n
        with pytest.raises(DomainError, match="need 0 <= delay < n"):
            inverse_band(taps, 4)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 128])
def test_lower_toeplitz_matches_the_masked_gather_bit_for_bit(size):
    taps = np.random.default_rng(size).standard_normal(size)
    taps[size // 2 :: 3] *= -0.0  # signed zeros on and below the diagonal keep their sign
    lags = np.subtract.outer(np.arange(size), np.arange(size))
    want = np.tril(taps[lags])  # the form the padded gather replaced
    got = lower_toeplitz(taps)
    assert got.shape == (size, size) and got.tobytes() == want.tobytes()
