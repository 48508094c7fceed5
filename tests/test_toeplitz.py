import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import DiscreteMarket, DomainError, SingularMatrix, SizeError, hedge_matrix
from delayed_hedge.solver import solve_a, weights_b
from delayed_hedge.toeplitz import (
    SymToeplitz,
    check_vanishing_minors,
    dense_det,
    band_to_dense,
    dense_inverse,
    det_closed_form,
    inverse_band,
    inverse_via_v,
    log_det_closed_form,
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
    v = v_vector(a, 2, 7)
    np.testing.assert_allclose(A @ v, np.eye(7)[0], atol=1e-14)


def test_v_vector_rejects_root_at_boundary():
    with pytest.raises(DomainError):
        v_vector(-0.5, 1, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: v_vector(a, 1, 5),
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
    with pytest.raises(SingularMatrix):
        dense_inverse(np.ones((3, 3)))


def _row_recurrence(a, delay, n):
    """The dense row recurrence ``inverse_band`` replaced, kept as its bit-for-bit reference."""
    v = v_vector(a, delay, n)
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
    band = inverse_band(a, delay, n)
    assert band.shape == (delay + 1, n)
    for d in range(delay + 1):
        assert np.array_equal(band[d, : n - d], np.diagonal(reference, -d))
        assert np.all(band[d, n - d :] == 0.0)
    dense = inverse_via_v(a, delay, n)
    assert dense.tobytes() == reference.tobytes()
    assert np.array_equal(band_to_dense(band), reference)


def test_inverse_band_rejects_a_delay_outside_the_horizon():
    for delay in (-1, 4):
        with pytest.raises(DomainError):
            inverse_band(0.1, delay, 4)
