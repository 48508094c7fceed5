"""The dual measure, stored as its taps, against the dense covariance and band oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


EPS = np.finfo(float).eps

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
    inverse = toeplitz.inverse_via_v(sol.a, m.delay, m.n)
    dense = m.sigma**2 * inverse
    assert np.array_equal(toeplitz.band_to_dense(band), dense)  # one band routine, from the taps
    # log |A^-1| by the Schur complement of its leading n - D rows, whose block is T T' / v_0 with T
    # lower triangular of diagonal v_0, so of determinant v_0^(n - D)
    lead = m.n - m.delay
    coupling = inverse[lead:, :lead]
    schur = inverse[lead:, lead:] - coupling @ np.linalg.solve(inverse[:lead, :lead], coupling.T)
    sign, log_det_schur = np.linalg.slogdet(schur)
    want = lead * math.log(dm.v[0]) + log_det_schur
    assert sign == 1.0 and abs(toeplitz.taps_log_det(dm.v, m.n) - want) <= 1e-12 * max(abs(want), 1.0)
    entropy = relative_entropy(dm, m)
    assert entropy == pytest.approx(_dense_entropy(dense, m), rel=1e-12, abs=1e-12)
    assert entropy == pytest.approx(dm.c_hat, rel=1e-10, abs=1e-12)
    assert check_marginal(dm, m, 1e-9)
    assert check_delayed_martingale(dm, m.delay, 1e-10)


def test_measure_is_its_taps_and_solution():
    m = market(6, 2, 1.3)
    dm = build_dual(m)
    assert [f.name for f in dataclasses.fields(dm)] == ["v", "solution"]
    assert dm.v.shape == (3,)
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

    The leading tap exceeds the sum of the other taps' sizes, so the predictor v / v_0 has no
    zero in the closed unit disk and its reflection coefficients lie inside (-1, 1) (Schur-Cohn).
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
def test_taps_log_det_matches_pbtrf_and_the_dense_log_det(n, delay, source):
    # the log-determinant of a stored measure, read off its taps' reflection coefficients,
    # against LAPACK's band Cholesky and a dense LU of its band
    v = _taps(n, delay, source)
    band = toeplitz.inverse_band(v, n)
    got = toeplitz.taps_log_det(v, n)
    sign, dense = np.linalg.slogdet(toeplitz.band_to_dense(band))
    assert sign == 1.0
    for want in (_pbtrf_log_det(_clean(band)), dense):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_taps_log_det_raises_where_the_band_stops_being_positive_definite():
    v = _random_taps(3, 7)
    toeplitz.taps_log_det(v, 300)
    indefinite = np.array([1.0, 0.0, 0.0, 2.0])  # k_3 = 2; the Schur complement on the last 3 rows is I - 4 I
    assert np.linalg.eigvalsh(toeplitz.band_to_dense(toeplitz.inverse_band(indefinite, 300)))[0] < 0.0
    for taps in (indefinite, np.array([1.0, 2.0]), -v, np.append(0.0, v[1:])):
        with pytest.raises(np.linalg.LinAlgError):
            toeplitz.taps_log_det(taps, 300)


@st.composite
def _any_taps(draw):
    """(taps, n) with 1 <= n <= 48 and 0 <= D < n: taps in [-1, 1] behind a leading tap of either
    sign and size in [1/8, 2D + 2], so that about half the draws are positive definite."""
    n = draw(st.integers(1, 48))
    delay = draw(st.integers(0, n - 1))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=delay + 1, max_size=delay + 1)))
    v[0] = draw(st.floats(0.125, 2.0 * delay + 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    return v, n


@settings(max_examples=300, deadline=None)
@given(_any_taps())
@example((np.array([0.5]), 1))  # n = 1, D = 0
@example((np.array([1.5, -1.0]), 7))  # D = 1
@example((np.array([3.0, 1.0, -0.5, 0.25]), 4))  # D = n - 1
@example((np.array([1.0, 2.0]), 5))  # k_1 = 2
@example((np.array([1.0, 0.0, 0.0, 2.0]), 9))
@example((np.array([-3.0, 0.5, 0.25]), 6))  # v_0 < 0
@example((np.array([0.75, 0.75, 2.0**-24]), 3))  # kappa 5.7e7
def test_taps_log_det_trace_and_total_match_the_dense_band(taps_and_n):
    # the step-down raises exactly where the band's smallest eigenvalue is <= 0, and otherwise
    # gives slogdet's value; relative_entropy and check_marginal read its trace and total
    v, n = taps_and_n
    delay = len(v) - 1
    dense = toeplitz.band_to_dense(toeplitz.inverse_band(v, n))
    eigenvalues = np.linalg.eigvalsh(dense)
    assume(abs(eigenvalues[0]) > 1e-9 * np.max(np.abs(eigenvalues)))
    if eigenvalues[0] <= 0.0:
        with pytest.raises(np.linalg.LinAlgError):
            toeplitz.taps_log_det(v, n)
        return
    sign, want = np.linalg.slogdet(dense)
    got = toeplitz.taps_log_det(v, n)
    # near the boundary both routes carry an error of about n eps kappa(K), slogdet the larger one:
    # at taps (0.75, 0.75, 2^-24) and n = 3, kappa 5.7e7, they miss the exact value by 1.9e-9 and 2.3e-10
    kappa = eigenvalues[-1] / eigenvalues[0]
    assert sign == 1.0 and abs(got - want) <= max(1e-12 * max(abs(want), 1.0), n * EPS * kappa)
    trace, total, size = float(np.trace(dense)), float(dense.sum()), float(np.abs(dense).sum())
    # sigma = 1 and mu = 0: the entropy is (trace - n - log |K|) / 2, and n sigma_hat^2 = 1'K1
    m = market(n, delay, math.sqrt(total / n))
    dm = DualMeasure(v=v, solution=solve(m))
    assert abs(2.0 * relative_entropy(dm, m) - (trace - n - got)) <= 1e-12 * max(trace, abs(got), n)
    assert check_marginal(dm, m, 1e-12 * size / total)
    moved = dataclasses.replace(m, sigma_hat=m.sigma_hat * (1.0 + 1e-9 * size / total))
    assert not check_marginal(DualMeasure(v=v, solution=solve(moved)), moved, 1e-12 * size / total)


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
    assert big <= small + 4096  # nothing sized by n
    assert big < 8 * 201 * 201 * 8  # the band would be 1.6 GB


def test_dual_layer_at_d_n_over_5_peaks_in_o_d_memory():
    # D = n / 5, where a D x D array would be 1.4 GB at n = 65536
    def proportional(n):
        return market(n, n // 5, 1.3 / math.sqrt(n), mu=0.1 / n, sigma=1.0 / math.sqrt(n))

    small, big = _peak_of_the_dual_layer(proportional(16384)), _peak_of_the_dual_layer(proportional(65536))
    assert big < 16 * 2**20
    assert big <= 6 * small  # 4x the taps
