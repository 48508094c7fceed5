"""The dual measure, stored as its taps, against the dense covariance and band oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_hedge import DiscreteMarket, LengthMismatch, NumericalError, toeplitz
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
    band = m.sigma**2 * toeplitz.inverse_band(dm.v, m.n)
    assert band.shape == (m.delay + 1, m.n)
    assert dm.solution == sol
    assert np.array_equal(dm.v, toeplitz.v_vector(sol.a, m.delay))
    assert np.array_equal(dm.corner, toeplitz.schur_corner(dm.v))
    inverse = toeplitz.inverse_via_v(sol.a, m.delay, m.n)
    dense = m.sigma**2 * inverse
    assert np.array_equal(toeplitz.band_to_dense(band), dense)  # one band routine, from the taps
    lead = m.n - m.delay  # the corner is the Schur complement of the leading n - D rows of A^-1
    coupling = inverse[lead:, :lead]
    schur = inverse[lead:, lead:] - coupling @ np.linalg.solve(inverse[:lead, :lead], coupling.T)
    np.testing.assert_allclose(dm.corner, schur, rtol=0, atol=1e-12 * max(np.max(np.abs(schur), initial=0.0), 1.0))
    entropy = relative_entropy(dm, m)
    assert entropy == pytest.approx(_dense_entropy(dense, m), rel=1e-12, abs=1e-12)
    assert entropy == pytest.approx(dm.c_hat, rel=1e-10, abs=1e-12)
    assert check_marginal(dm, m, 1e-9)
    assert check_delayed_martingale(dm, m.delay, 1e-10)


def test_measure_is_its_taps_and_solution():
    m = market(6, 2, 1.3)
    dm = build_dual(m)
    assert [f.name for f in dataclasses.fields(dm)] == ["v", "solution"]
    assert dm.v.shape == (3,) and dm.corner.shape == (2, 2)
    assert dm.corner is dm.corner  # derived from the taps once
    assert dm.c_hat == dm.solution.c_hat == solve(m).c_hat
    with pytest.raises(TypeError):
        DualMeasure(v=dm.v)  # the solution is required
    for v in (np.zeros(0), np.ones(7)):  # no taps; n <= D
        with pytest.raises(LengthMismatch, match="do not fit"):
            DualMeasure(v=v, solution=dm.solution)


@pytest.mark.parametrize("m", MARKETS[1:], ids=lambda m: f"n{m.n}-D{m.delay}")
def test_column_check_rejects_taps_that_do_not_invert_a(m):
    dm = build_dual(m)
    assert not check_delayed_martingale(DualMeasure(v=dm.v * (1.0 + 1e-6), solution=dm.solution), m.delay, 1e-10)
    for tap in {0, min(1, m.delay), m.delay}:
        bumped = dm.v.copy()
        bumped[tap] += 1e-6 * np.max(np.abs(bumped))
        assert not check_delayed_martingale(DualMeasure(v=bumped, solution=dm.solution), m.delay, 1e-10)


def test_rows_beyond_the_delay_must_vanish():
    dm = build_dual(market(8, 2, 1.5))
    wider = DualMeasure(v=np.append(dm.v, 1e-3), solution=dm.solution)
    assert not check_delayed_martingale(wider, 2, 1e-10)
    # within a wider delay the tap is allowed, but the measure no longer inverts A
    assert not check_delayed_martingale(wider, 3, 1e-10)
    # an exact zero tap past the delay, with the corner it leaves, is the same measure
    same = DualMeasure(v=np.append(dm.v, 0.0), solution=dm.solution)
    assert check_delayed_martingale(same, 2, 1e-10) and check_delayed_martingale(same, 3, 1e-10)


def test_entropy_rejects_a_covariance_that_is_not_positive_definite():
    m = market(3, 1, 1.0)
    # a leading tap of -1 or 0, the variance of the first increment, which no positive definite
    # covariance has, and taps (1, 2), whose corner (1 - 2^2) / 1 = -3 is negative; the corner
    # divides by v_0, so v_0 is checked first and no RuntimeWarning is raised
    for taps in ([-1.0, 1.0], [0.0, 1.0], [1.0, 2.0]):
        with pytest.raises(NumericalError):
            relative_entropy(DualMeasure(v=np.array(taps), solution=solve(m)), m)


def test_checks_refuse_a_leading_tap_of_zero_without_a_warning():
    # v_0 = 0, the variance of the first increment, is no covariance's; the marginal divides by it,
    # so it is refused first, and the martingale check divides by nothing
    m = market(3, 1, 1.0)
    dm = DualMeasure(v=np.array([0.0, 1.0]), solution=solve(m))
    assert not check_marginal(dm, m, 1e-9)
    assert not check_delayed_martingale(dm, 1, 1e-10)
    with pytest.raises(NumericalError):
        relative_entropy(dm, m)


def _dense_inverse_residual(matrix, taps):
    """max |A K - I| over max |A| max |K|, with K the dense Gohberg-Semencul sum of the taps."""
    cov = toeplitz.band_to_dense(toeplitz.inverse_band(taps, matrix.shape[0]))
    return np.max(np.abs(matrix @ cov - np.eye(len(cov)))) / (np.max(np.abs(matrix)) * np.max(np.abs(cov)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 48).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    st.floats(0.5, 2.0),
    st.data(),
)
def test_column_check_agrees_with_the_dense_inverse_it_stands_for(shape, ratio, data):
    # a built measure passes both A v = e_0 and the dense A K = I; one tap moved by a relative
    # 10^-u (of the largest tap) fails both: worst 4.9e-15 for the first, and at least 0.73 10^-u
    # for the second over 20000 draws
    n, delay = shape
    m = market(n, delay, ratio)
    dm = build_dual(m)
    matrix = dm.solution.matrix.to_dense()
    assert check_delayed_martingale(dm, delay, 1e-10)
    assert _dense_inverse_residual(matrix, dm.v) <= 1e-12
    tap = data.draw(st.integers(0, delay), label="tap")
    u = data.draw(st.floats(1.0, 7.0), label="u")
    moved = dm.v.copy()
    moved[tap] += 10.0**-u * np.max(np.abs(moved))
    assert not check_delayed_martingale(DualMeasure(v=moved, solution=dm.solution), delay, 1e-10)
    assert _dense_inverse_residual(matrix, moved) > 1e-10


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


# (n, D): n = 1, D = 0, D = n - 1, n = 2D + 1 and less, D above 64
BAND_SHAPES = [(1, 0), (5, 0), (7, 6), (64, 3), (130, 3), (129, 1), (64, 63), (200, 70), (1000, 20)]


def _random_market(n, delay, seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.3, 2.0))
    return market(n, delay, sigma * float(rng.uniform(0.5, 2.0)), mu=float(rng.uniform(-0.2, 0.2)), sigma=sigma)


def _random_taps(delay, seed):
    """Random taps in [-1, 1] behind a leading tap above 2D: K is then positive definite.

    Its corner is (L L' - R R') / v_0 (``toeplitz.schur_corner``), and the smallest singular
    value of L, at least v_0 - (D - 1), exceeds the largest of R, at most D.
    """
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, delay + 1)
    v[0] = 2 * delay + rng.uniform(0.5, 1.5)
    return v


def _taps(n, delay, source):
    """The taps of a dual measure over sigma^2, or random taps."""
    seed = 1000 * n + delay
    if source == "random":
        return _random_taps(delay, seed)
    return build_dual(_random_market(n, delay, seed)).v


def _pbtrf_log_det(band):
    from scipy.linalg import cholesky_banded

    return 2.0 * float(np.sum(np.log(cholesky_banded(band, lower=True, check_finite=False)[0])))


def _clean(band):
    """``band`` with zeros past the end of each diagonal, as LAPACK's band storage reads them."""
    n = band.shape[1]
    return np.where(np.arange(n) + np.arange(len(band))[:, None] >= n, 0.0, band)


@pytest.mark.parametrize("n,delay", BAND_SHAPES)
@pytest.mark.parametrize("source", ["dual", "random"])
def test_corner_log_det_matches_pbtrf_and_the_dense_log_det(n, delay, source):
    # the log-determinant of a stored measure, read off its leading tap and corner,
    # against LAPACK's band Cholesky and a dense LU of its band
    v = _taps(n, delay, source)
    band = toeplitz.inverse_band(v, n)
    got = toeplitz.corner_log_det(v, toeplitz.schur_corner(v), n)
    sign, dense = np.linalg.slogdet(toeplitz.band_to_dense(band))
    assert sign == 1.0
    for want in (_pbtrf_log_det(_clean(band)), dense):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_corner_log_det_raises_where_the_band_stops_being_positive_definite():
    v = _random_taps(3, 7)
    toeplitz.corner_log_det(v, toeplitz.schur_corner(v), 300)
    indefinite = np.array([1.0, 0.0, 0.0, 2.0])  # corner (I - 4 I) / 1 = -3 I
    assert np.linalg.eigvalsh(toeplitz.band_to_dense(toeplitz.inverse_band(indefinite, 300)))[0] < 0.0
    with pytest.raises(np.linalg.LinAlgError):
        toeplitz.corner_log_det(indefinite, toeplitz.schur_corner(indefinite), 300)
    with pytest.raises(np.linalg.LinAlgError):
        toeplitz.corner_log_det(-v, toeplitz.schur_corner(v), 300)


def _peak_of_the_dual_layer(m):
    """tracemalloc peak of build_dual, relative_entropy and check_marginal, after a first call outside the trace."""
    build_dual(m)
    tracemalloc.start()
    try:
        dm = build_dual(m)
        entropy = relative_entropy(dm, m)
        marginal = check_marginal(dm, m, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert marginal
    assert entropy == pytest.approx(dm.c_hat, rel=1e-10)
    return peak


def test_entropy_and_marginal_at_n_1e6_peak_as_at_n_1e3():
    def large(n):
        return market(n, 200, 1.3 / math.sqrt(n), mu=0.1 / n, sigma=1.0 / math.sqrt(n))

    small, big = _peak_of_the_dual_layer(large(10**3)), _peak_of_the_dual_layer(large(10**6))
    assert big <= small + 4096  # nothing sized by n; about 1.3 MB, a few D x D arrays, at both
    assert big < 8 * 201 * 201 * 8  # the band would be 1.6 GB
