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
    relative_entropy(build_dual(market(8, 2, 1.3)), market(8, 2, 1.3))  # scipy.linalg loaded outside the trace
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
