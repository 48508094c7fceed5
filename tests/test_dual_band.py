"""The banded dual measure against the dense covariance it replaced."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from delayed_hedge import DiscreteMarket, NumericalError, toeplitz
from delayed_hedge.dual import (
    DualMeasure,
    build_dual,
    check_delayed_martingale,
    check_marginal,
    relative_entropy,
)
from delayed_hedge.solver import solve


def market(n, delay, sigma_hat, mu=0.0, sigma=1.0):
    return DiscreteMarket(n=n, delay=delay, mu=mu, sigma=sigma, sigma_hat=sigma_hat)


MARKETS = [
    market(1, 0, 1.3, mu=0.1),
    market(6, 2, 1.3, mu=0.1),
    market(9, 3, 0.7),
    market(32, 15, 2.0, mu=0.2),
    market(256, 1, 0.8, mu=0.01, sigma=0.5),
    market(640, 64, 1.2),
]


def _dense_entropy(cov, m):
    """The dense Cholesky entropy ``relative_entropy`` replaced."""
    n = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    log_det_a = n * math.log(m.sigma**2) - 2.0 * float(np.sum(np.log(np.diag(chol))))
    return 0.5 * (float(np.trace(cov)) / m.sigma**2 - n + log_det_a + n * m.mu**2 / m.sigma**2)


@pytest.mark.parametrize("m", MARKETS, ids=lambda m: f"n{m.n}-D{m.delay}")
def test_band_matches_the_dense_covariance(m):
    dm = build_dual(m)
    sol = solve(m)
    assert dm.band.shape == (m.delay + 1, m.n)
    assert dm.solution == sol
    dense = m.sigma**2 * toeplitz.inverse_via_v(sol.a, m.delay, m.n)
    assert np.array_equal(toeplitz.band_to_dense(dm.band), dense)
    entropy = relative_entropy(dm, m)
    assert entropy == pytest.approx(_dense_entropy(dense, m), rel=1e-12, abs=1e-12)
    assert entropy == pytest.approx(dm.c_hat, rel=1e-10, abs=1e-12)
    assert check_marginal(dm, m, 1e-9)
    assert check_delayed_martingale(dm, m.delay, 1e-10)


def test_measure_is_its_band_and_solution():
    m = market(6, 2, 1.3)
    dm = build_dual(m)
    assert [f.name for f in dataclasses.fields(dm)] == ["band", "solution"]
    assert dm.c_hat == dm.solution.c_hat == solve(m).c_hat
    with pytest.raises(TypeError):
        DualMeasure(band=dm.band)  # the solution is required


@pytest.mark.parametrize("m", MARKETS[1:], ids=lambda m: f"n{m.n}-D{m.delay}")
def test_probe_rejects_a_band_that_does_not_invert_a(m):
    dm = build_dual(m)
    scaled = DualMeasure(band=dm.band * (1.0 + 1e-6), solution=dm.solution)
    assert not check_delayed_martingale(scaled, m.delay, 1e-10)
    bumped = dm.band.copy()
    bumped[min(1, m.delay), m.n // 3] += 1e-6 * np.max(np.abs(bumped))
    assert not check_delayed_martingale(DualMeasure(band=bumped, solution=dm.solution), m.delay, 1e-10)


def test_rows_beyond_the_delay_must_vanish():
    dm = build_dual(market(8, 2, 1.5))
    wide = np.vstack([dm.band, np.full((1, 8), 1e-3)])
    assert not check_delayed_martingale(DualMeasure(band=wide, solution=dm.solution), 2, 1e-10)
    # within a wider delay the row is allowed, but it no longer inverts A
    assert not check_delayed_martingale(DualMeasure(band=wide, solution=dm.solution), 3, 1e-10)


def test_entropy_rejects_a_covariance_that_is_not_positive_definite():
    m = market(3, 1, 1.0)
    band = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])  # the band of ones - 2 eye
    with pytest.raises(NumericalError):
        relative_entropy(DualMeasure(band=band, solution=solve(m)), m)


def test_dual_layer_at_n_4096_builds_no_n_by_n_array():
    n = 4096
    m = market(n, 20, 1.3 / math.sqrt(n), mu=0.1 / n, sigma=1.0 / math.sqrt(n))
    relative_entropy(build_dual(market(8, 2, 1.3)), market(8, 2, 1.3))  # a first call outside the trace
    tracemalloc.start()
    try:
        dm = build_dual(m)
        entropy = relative_entropy(dm, m)
        marginal = check_marginal(dm, m, 1e-9)
        martingale = check_delayed_martingale(dm, m.delay, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert marginal and martingale
    assert entropy == pytest.approx(dm.c_hat, rel=1e-10)
    assert peak < n * n * 8 / 16  # one n x n float array is 134 MB; about 3 MB measured


# (n, D): n = 1, D = 0, D = n - 1, n a multiple of the block and not, D above the block
BAND_SHAPES = [(1, 0), (5, 0), (7, 6), (64, 3), (130, 3), (129, 1), (64, 63), (200, 70), (1000, 20)]


def _random_market(n, delay, seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.3, 2.0))
    return market(n, delay, sigma * float(rng.uniform(0.5, 2.0)), mu=float(rng.uniform(-0.2, 0.2)), sigma=sigma)


def _random_spd_band(n, delay, seed):
    """The band of a random diagonally dominant matrix, with garbage past the end of each diagonal."""
    rng = np.random.default_rng(seed)
    band = rng.uniform(-1.0, 1.0, (delay + 1, n))
    band[0] = 2.0 * delay + rng.uniform(0.5, 1.5, n)
    band[np.arange(n) + np.arange(delay + 1)[:, None] >= n] = np.nan
    return band


def _pbtrf_log_det(band):
    from scipy.linalg import cholesky_banded

    return 2.0 * float(np.sum(np.log(cholesky_banded(band, lower=True, check_finite=False)[0])))


def _clean(band):
    """``band`` with zeros past the end of each diagonal, as LAPACK's band storage reads them."""
    n = band.shape[1]
    return np.where(np.arange(n) + np.arange(len(band))[:, None] >= n, 0.0, band)


@pytest.mark.parametrize("n,delay", BAND_SHAPES)
@pytest.mark.parametrize("source", ["dual", "random"])
def test_band_log_det_matches_pbtrf_and_the_dense_log_det(n, delay, source):
    seed = 1000 * n + delay
    band = build_dual(_random_market(n, delay, seed)).band if source == "dual" else _random_spd_band(n, delay, seed)
    got = toeplitz.band_log_det(band)
    sign, dense = np.linalg.slogdet(toeplitz.band_to_dense(band))
    assert sign == 1.0
    for want in (_pbtrf_log_det(_clean(band)), dense):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_band_log_det_raises_where_the_band_stops_being_positive_definite():
    band = _random_spd_band(300, 3, 7)
    toeplitz.band_log_det(band)
    band[0, 250] = -1.0  # in the fourth block of 64 rows
    with pytest.raises(np.linalg.LinAlgError):
        toeplitz.band_log_det(band)


@pytest.mark.parametrize("n,delay", BAND_SHAPES)
def test_band_matvec_matches_the_dense_product_and_dsbmv(n, delay):
    from scipy.linalg.blas import dsbmv

    band = _random_spd_band(n, delay, n + delay)
    z = np.random.default_rng(delay).standard_normal((3, n))
    got = toeplitz.band_matvec(band, z)
    dense = toeplitz.band_to_dense(band) @ z.T
    stored = np.asfortranarray(_clean(band))
    blas = np.array([dsbmv(delay, 1.0, stored, row, lower=1) for row in z])
    scale = np.max(np.abs(dense))
    np.testing.assert_allclose(got, dense.T, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(got, blas, rtol=0, atol=1e-14 * scale)
    assert np.array_equal(toeplitz.band_matvec(band, z[0]), got[0])
