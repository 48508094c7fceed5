import dataclasses
import math

import numpy as np
import pytest

from delayed_hedge import DiscreteMarket, DomainError, LengthMismatch, dual, toeplitz, value
from delayed_hedge.dual import (
    DualMeasure,
    build_dual,
    check_delayed_martingale,
    check_marginal,
    relative_entropy,
    verification_residual,
)
from delayed_hedge.mc import generate
from delayed_hedge.solver import evaluate_paths, hedge_matrix, solve, strategy
from delayed_hedge.toeplitz import band_to_dense, dense_det


def market(n, delay, sigma_hat, mu=0.0, sigma=1.0):
    return DiscreteMarket(n=n, delay=delay, mu=mu, sigma=sigma, sigma_hat=sigma_hat)


def test_build_dual_consistent_market():
    m = market(5, 2, 1.0)
    dm = build_dual(m)
    np.testing.assert_allclose(band_to_dense(m.sigma**2 * toeplitz.inverse_band(dm.v, m.n)), np.eye(5), atol=0)
    assert dm.c_hat == 0.0


def test_build_dual_drift_only():
    m = market(5, 2, 1.0, mu=0.3)
    dm = build_dual(m)
    assert dm.c_hat == pytest.approx(5 * 0.09 / 2.0, rel=1e-14)


def test_constant_equals_negative_log_value():
    m = market(5, 2, 1.4, mu=0.1)
    assert build_dual(m).c_hat == pytest.approx(-math.log(-value(m)), rel=1e-13)


def test_delayed_martingale_structure():
    assert check_delayed_martingale(build_dual(market(4, 1, 1.0)), 1, 1e-12)
    assert check_delayed_martingale(build_dual(market(8, 2, 1.5)), 2, 1e-10)
    # ones + eye couples every pair of increments, so it is not 1-banded: its inverse
    # I - ones / 5 is Toeplitz, so its first column is its taps, two more than a delay of 1 allows
    taps = np.array([2.0, 1.0, 1.0, 1.0])
    coupled = DualMeasure(v=taps, solution=solve(market(4, 1, 1.0)))
    np.testing.assert_array_equal(band_to_dense(toeplitz.inverse_band(taps, 4)), np.ones((4, 4)) + np.eye(4))
    assert toeplitz.taps_log_det(taps, 4) == pytest.approx(math.log(5.0), rel=1e-15)  # |ones + eye| = 5
    assert not check_delayed_martingale(coupled, 1, 1e-10)


def test_marginal_condition():
    m = market(7, 3, 0.6)
    dm = build_dual(m)
    assert check_marginal(dm, m, 1e-9)
    for tap in (0, 1, 3):
        bumped = dm.v.copy()
        bumped[tap] += 0.01  # tap 1: the covariance of increments 1 and 0, and the rest of its diagonal
        assert not check_marginal(DualMeasure(v=bumped, solution=dm.solution), m, 1e-9)


def test_verification_residual_origin():
    m = market(4, 1, 1.0)
    assert verification_residual(m, np.zeros((1, 4)))[0] == pytest.approx(0.0, abs=1e-15)


def test_verification_residual_takes_a_batch_of_paths_only():
    with pytest.raises(LengthMismatch, match="paths of length"):
        verification_residual(market(4, 1, 1.0), np.zeros(4))


def test_verification_residual_seeded_paths():
    m = market(6, 2, 1.5, mu=0.2)
    batch = generate(m, 1000, seed=314)
    residuals = verification_residual(m, batch.increments)
    assert np.max(np.abs(residuals)) < 1e-9


def test_verification_residual_tail_stress():
    m = market(6, 2, 1.5, mu=0.2)
    batch = generate(m, 200, seed=99)
    residuals = verification_residual(m, 10.0 * batch.increments)
    assert np.max(np.abs(residuals)) < 1e-8


def _dense_residual(m, x):
    """The dense quadratic form ``causal_convolve`` replaced: x'Ax by an einsum over the n x n matrix."""
    w = dual.strategy(m)
    sol = w.solution
    _, v = evaluate_paths(w, m, x)
    quad_dual = np.einsum("pi,ij,pj->p", x, sol.matrix.to_dense(), x) / m.sigma**2
    quad_market = np.sum((x - m.mu) ** 2, axis=1) / m.sigma**2
    return v + 0.5 * (sol.log_det - quad_dual + quad_market) - sol.c_hat


RESIDUAL_MARKETS = [
    market(1, 0, 1.3, mu=0.1),
    market(2, 1, 0.7),
    market(7, 0, 1.4, mu=-0.1),
    market(8, 2, 1.3, mu=0.1),
    market(64, 5, 0.8, mu=0.02, sigma=0.5),
    market(256, 255, 1.2),
]


@pytest.mark.parametrize("scale", [1.0, 1.5])
@pytest.mark.parametrize("m", RESIDUAL_MARKETS, ids=lambda m: f"n{m.n}-D{m.delay}")
def test_verification_residual_matches_dense_quadratic(monkeypatch, m, scale):
    # a scaled kernel with its solution retained is a wrong strategy checked
    # against the right dual side: the residual must then be far from zero
    def scaled_strategy(market):
        w = strategy(market)
        return dataclasses.replace(w, kernel=scale * w.kernel)

    monkeypatch.setattr(dual, "strategy", scaled_strategy)
    x = generate(m, 50, seed=m.n).increments
    reference = _dense_residual(m, x)

    def no_dense(self):
        raise AssertionError("verification_residual built the dense matrix")

    monkeypatch.setattr(toeplitz.SymToeplitz, "to_dense", no_dense)
    residual = verification_residual(m, x)
    sol = strategy(m).solution
    bound = (abs(sol.a + 1.0) + 2.0 * float(np.sum(np.abs(sol.b)))) * np.sum(x * x, axis=1) / m.sigma**2
    assert np.all(np.abs(residual - reference) <= 4 * m.n * np.finfo(float).eps * (1.0 + bound))
    wrong = scale != 1.0 and m.delay < m.n - 1  # D = n - 1 leaves no lag to scale
    if wrong:
        assert np.max(np.abs(residual)) > 1e-8
    else:
        assert np.max(np.abs(residual)) < 1e-9


@pytest.mark.parametrize("lag", [3, 150, 298])
def test_verification_residual_sees_one_kernel_lag_moved_by_1e_6(monkeypatch, lag):
    m = market(300, 2, 1.3, mu=0.1)  # 297 outputs past the delay: both forms take the FFT
    x = generate(m, 20, seed=7).increments
    assert np.max(np.abs(verification_residual(m, x))) < 1e-9

    def perturbed_strategy(market):
        w = strategy(market)
        kernel = w.kernel.copy()
        kernel[lag - 1] += 1e-6  # 1-based lag
        return dataclasses.replace(w, kernel=kernel)

    monkeypatch.setattr(dual, "strategy", perturbed_strategy)
    assert np.max(np.abs(verification_residual(m, x))) > 1e-8


def test_relative_entropy_values():
    assert relative_entropy(build_dual(market(5, 2, 1.0)), market(5, 2, 1.0)) == pytest.approx(
        0.0, abs=1e-14
    )
    m = market(5, 2, 1.0, mu=0.3)
    assert relative_entropy(build_dual(m), m) == pytest.approx(5 * 0.09 / 2.0, rel=1e-12)
    m = market(6, 2, 1.3, mu=0.1)
    dm = build_dual(m)
    assert relative_entropy(dm, m) == pytest.approx(dm.c_hat, rel=1e-10)


def test_entropy_and_marginal_refuse_a_market_the_measure_was_not_built_for():
    m = market(8, 2, 1.3, mu=0.1)
    dm = build_dual(m)
    # read silently, this market gave entropy 2.273 against c_hat 0.204 and passed the marginal check
    other = market(8, 2, 1.3, mu=0.3, sigma=2.0)
    with pytest.raises(DomainError, match="differs from the dual measure's"):
        relative_entropy(dm, other)
    with pytest.raises(DomainError, match="differs from the dual measure's"):
        check_marginal(dm, other, 1e-9)
    # an equal market built separately is the measure's own
    same = market(8, 2, 1.3, mu=0.1)
    assert relative_entropy(dm, same) == pytest.approx(dm.c_hat, rel=1e-10)
    assert check_marginal(dm, same, 1e-9)


def test_closed_form_log_det_against_factorization():
    # the dual log-density uses the closed-form determinant; cross-check it
    # against LU on the dense matrix for a few markets
    for m in [market(6, 2, 1.3, mu=0.1), market(9, 3, 0.7), market(12, 5, 1.8)]:
        dm = build_dual(m)
        det_a = dense_det(hedge_matrix(m).to_dense())
        assert dm.c_hat == pytest.approx(
            m.n * (m.mu**2 - _root(m) * m.sigma_hat**2) / 2.0 + 0.5 * math.log(det_a),
            rel=1e-12,
        )


def _root(m):
    from delayed_hedge import solve_a

    return solve_a(m)


def test_covariance_is_spd():
    for m in [market(5, 2, 0.5), market(8, 3, 2.0), market(16, 7, 1.2, mu=0.2)]:
        band = m.sigma**2 * toeplitz.inverse_band(build_dual(m).v, m.n)
        np.linalg.cholesky(band_to_dense(band))  # raises if not SPD
