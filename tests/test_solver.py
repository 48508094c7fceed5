import dataclasses
import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import (
    DiscreteMarket,
    DomainError,
    LengthMismatch,
    SizeError,
    brute_force_optimum,
    hedge_matrix,
    solve,
    solve_a,
    strategy,
    value,
    weights_b,
)
from delayed_hedge import dual, solver
from delayed_hedge.convergence import figure2_data
from delayed_hedge.dual import build_dual, verification_residual
from delayed_hedge.kernel import KernelSpec, kernel_spec
from delayed_hedge.mc import PathBatch, generate
from delayed_hedge.solver import quadratic_coeffs
from delayed_hedge.toeplitz import log_det_closed_form


def market(n, delay, sigma_hat, mu=0.0, sigma=1.0):
    return DiscreteMarket(n=n, delay=delay, mu=mu, sigma=sigma, sigma_hat=sigma_hat)


# --- root ------------------------------------------------------------------

def test_root_no_delay_half_vol():
    assert solve_a(market(4, 0, 2.0)) == -0.75


def test_root_zero_when_vols_agree():
    for n, d in [(2, 0), (5, 2), (9, 4)]:
        assert solve_a(market(n, d, 1.0)) == 0.0


def test_root_matches_stable_quadratic_oracle():
    # independent oracle: the +/- b quadratic formula picking the larger root
    m = market(4, 1, 1.0 / math.sqrt(2.0))
    q = quadratic_coeffs(m)
    disc = math.sqrt(q.qb**2 - 4 * q.qa * q.qc)
    if q.qb >= 0:
        r1 = (-q.qb - disc) / (2 * q.qa)
        r2 = q.qc / (q.qa * r1)
    else:
        r2 = (-q.qb + disc) / (2 * q.qa)
        r1 = q.qc / (q.qa * r2)
    assert solve_a(m) == pytest.approx(max(r1, r2), rel=1e-13)


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=2, max_value=64),
    delay=st.integers(min_value=0, max_value=8),
    sigma_hat=st.floats(min_value=0.25, max_value=4.0),
)
def test_root_properties(n, delay, sigma_hat):
    if delay >= n:
        return
    m = market(n, delay, sigma_hat)
    a = solve_a(m)
    q = quadratic_coeffs(m)
    assert abs(q.residual(a)) <= 1e-12 * q.scale
    assert a > -1.0 / (delay + 1)
    if sigma_hat > 1.0:
        assert a < 0
    elif sigma_hat < 1.0:
        assert a > 0
    if delay > 0:
        other = q.qc / (q.qa * a) if a != 0 else -q.qb / q.qa
        assert other <= a + 1e-12


def _root_60_digits(m):
    """The largest root of the hedging quadratic in 60-digit decimal arithmetic, from the exact
    binary values of sigma and sigma_hat, by the textbook formula."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D, n = decimal.Decimal(m.delay), decimal.Decimal(m.n)
        ratio2 = decimal.Decimal(m.sigma) ** 2 / decimal.Decimal(m.sigma_hat) ** 2
        qa, qb, qc = D * (D + 1), 2 * D + 1 - D * (D + 1) * ratio2 / n, 1 - ratio2
        if m.delay == 0:
            return -qc
        return (-qb + (qb * qb - 4 * qa * qc).sqrt()) / (2 * qa)


@st.composite
def _near_consistent_markets(draw):
    n = draw(st.integers(min_value=2, max_value=10**6))
    delay = draw(st.integers(min_value=0, max_value=min(200, n - 1)))
    sigma = draw(st.floats(min_value=0.01, max_value=10.0))
    kind = draw(st.sampled_from(["ulps", "close", "far"]))
    if kind == "ulps":  # sigma_hat up to 8 ulps from sigma, where the sign law is decided by the last bit
        sigma_hat = sigma
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            sigma_hat = math.nextafter(sigma_hat, draw(st.sampled_from([0.0, math.inf])))
    elif kind == "close":
        sigma_hat = sigma * math.exp(draw(st.floats(min_value=-0.1, max_value=0.1)))
    else:
        sigma_hat = sigma * math.exp(draw(st.floats(min_value=-3.0, max_value=3.0)))
    return market(n, delay, sigma_hat, sigma=sigma)


@settings(deadline=None, max_examples=300)
@given(m=_near_consistent_markets())
def test_root_matches_a_60_digit_oracle_near_consistent_pricing(m):
    a = solve_a(m)
    exact = _root_60_digits(m)
    if m.sigma == m.sigma_hat:
        assert a == 0.0 and math.copysign(1.0, a) == 1.0
    else:
        assert abs(decimal.Decimal(a) - exact) <= decimal.Decimal(1e-13) * abs(exact)
        assert (a < 0) == (m.sigma_hat > m.sigma)  # the sign law
        assert (a > 0) == (m.sigma_hat < m.sigma)


def test_root_has_the_right_sign_one_ulp_from_consistent_pricing():
    sigma = 0.16507995634987824
    m = market(1000, 4, math.nextafter(sigma, math.inf), sigma=sigma)
    a = solve_a(m)
    assert a == -3.7446355164917486e-17  # the cancelling form gave +1.05e-17
    exact = _root_60_digits(m)
    assert abs(decimal.Decimal(a) - exact) <= decimal.Decimal(1e-15) * abs(exact)


# --- weights ---------------------------------------------------------------

def test_weights_zero_cases():
    m = market(6, 2, 1.0)
    assert np.array_equal(weights_b(m, 0.0, 5), np.zeros(5))
    m0 = market(6, 0, 1.7)
    assert np.array_equal(weights_b(m0, solve_a(m0), 5), np.zeros(5))


@pytest.mark.parametrize("delay", [0, 2])
def test_weights_refuse_a_negative_count(delay):
    m = market(6, delay, 1.3)
    with pytest.raises(DomainError, match="count"):
        weights_b(m, solve_a(m), -1)


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_weights_refuse_a_count_that_is_not_an_integer(count):
    m = market(6, 2, 1.3)
    with pytest.raises(DomainError, match="weight count must be an integer >= 0"):
        weights_b(m, solve_a(m), count)


def _weights_on_ndarray(m, a, count):
    """The window recursion of weights_b written into an ndarray, one np.float64 at a time."""
    D = m.delay
    b = np.empty(count)
    b[: min(D, count)] = a
    ratio = a / (a * D + 1.0)
    window = a * D
    for i in range(D, count):
        b[i] = ratio * window
        window += b[i] - b[i - D]
    return b


@pytest.mark.parametrize("delay", [1, 3, 64])
@pytest.mark.parametrize("sigma_hat", [0.8, 1.3])
def test_weights_on_a_list_match_the_ndarray_recurrence_bit_for_bit(delay, sigma_hat):
    m = market(10**4 + 1, delay, sigma_hat)
    a = solve_a(m)
    for count in (0, delay - 1, delay, 10**4):
        got = weights_b(m, a, count)
        assert got.dtype == np.float64
        assert np.array_equal(got, _weights_on_ndarray(m, a, count))


def test_weights_unit_delay_geometric():
    m = market(8, 1, 0.7)
    a = solve_a(m)
    got = weights_b(m, a, 7)
    want = [a * (a / (a + 1.0)) ** i for i in range(7)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_weights_match_direct_recursion():
    m = market(10, 3, 1.6)
    a = solve_a(m)
    got = weights_b(m, a, 9)
    b = [a, a, a]
    for i in range(3, 9):
        b.append(a / (a * 3 + 1.0) * sum(b[i - 3 : i]))
    np.testing.assert_allclose(got, b, rtol=1e-14)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5000),
    ratio=st.one_of(
        st.floats(0.5, 2.0),
        st.just(1.0),
        st.floats(1.0 - 1e-12, 1.0 + 1e-12),
    ),
)
def test_weights_keep_the_bits_of_the_ndarray_recurrence(data, n, ratio):
    # sigma_hat / sigma = ratio; the draws reach D = 0, count <= D and D = n - 1
    delay = data.draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)), label="delay")
    count = data.draw(st.one_of(st.integers(0, delay), st.integers(0, n)), label="count")
    m = market(n, delay, ratio, sigma=1.0)
    a = solve_a(m)
    # with D = 0 the weights are empty sums, +0.0; the ndarray loop would write a * (a * 0)
    want = _weights_on_ndarray(m, a, count) if delay else np.zeros(count)
    assert _bits(weights_b(m, a, count)) == _bits(want)


def _counting_islice(counter):
    """itertools.islice that appends one entry to ``counter`` per item it yields."""

    def counting(iterable, stop):
        for item in itertools.islice(iterable, stop):
            counter.append(None)
            yield item

    return counting


@pytest.mark.parametrize(
    "n,delay,sigma_hat",
    [(2048, 3, 1.3), (2048, 3, 0.8), (1024, 20, 1.3), (1024, 20, 0.8), (10**5, 20, 1.3), (10**5, 200, 0.8)],
)
def test_weights_stop_within_d_steps_of_the_fixed_point(monkeypatch, n, delay, sigma_hat):
    m = market(n, delay, sigma_hat)
    a = solve_a(m)
    want = _weights_on_ndarray(m, a, n - 1)
    tail = want.view(np.uint64)
    first = int(np.flatnonzero(tail != tail[-1])[-1]) + 1  # b from index `first` on is the fixed point
    assert first + 2 * delay < n - 1  # the market settles well before its last weight
    steps = []
    monkeypatch.setattr(solver, "islice", _counting_islice(steps))
    got = weights_b(m, a, n - 1)
    assert _bits(got) == _bits(want)
    # the certificate first holds over b[first .. first + D], after first + 1 steps; the next test comes within D
    assert first + 1 <= len(steps) <= first + delay


def test_weights_run_every_step_where_the_recursion_never_settles(monkeypatch):
    m = market(640, 64, 1.3)
    a = solve_a(m)
    steps = []
    monkeypatch.setattr(solver, "islice", _counting_islice(steps))
    got = weights_b(m, a, m.n - 1)
    assert len(steps) == m.n - 1 - m.delay
    assert _bits(got) == _bits(_weights_on_ndarray(m, a, m.n - 1))


@pytest.mark.parametrize("delay", [1, 3, 64])
@pytest.mark.parametrize("zero", [-0.0, 0.0])
def test_weights_keep_signed_zeros(monkeypatch, delay, zero):
    # a = -0.0: ratio = -0.0 and the window starts at -0.0, so b_{D+1} = (-0.0)(-0.0) = +0.0; that
    # step turns the window into +0.0, and every later weight is (-0.0)(+0.0) = -0.0.  `==` cannot
    # see the difference, so the stop compares bits.
    m = market(10**4, delay, 1.3)
    count = 10**4 - 1
    want = _weights_on_ndarray(m, zero, count)
    if math.copysign(1.0, zero) < 0:
        signs = [-1.0] * delay + [1.0] + [-1.0] * (count - delay - 1)
    else:
        signs = [1.0] * count
    assert [math.copysign(1.0, w) for w in want.tolist()] == signs and not want.any()
    for length in (0, delay, delay + 1, 2 * delay + 2, count):
        assert _bits(weights_b(m, zero, length)) == _bits(want[:length])
    steps = []
    monkeypatch.setattr(solver, "islice", _counting_islice(steps))
    assert _bits(weights_b(m, zero, count)) == _bits(want)
    assert len(steps) <= 2 * delay + 1  # the zeros settle by b_{D+2}, and the loop stops within D steps


# --- strategy --------------------------------------------------------------

def test_strategy_consistent_market_is_merton_only():
    w = strategy(market(5, 2, 1.0, mu=0.3))
    assert w.merton == pytest.approx(0.3)
    assert np.array_equal(w.kernel, np.zeros(4))
    assert w.static_coeff == 0.0


def test_strategy_static_coefficient_no_delay():
    w = strategy(market(4, 0, 2.0))
    assert w.static_coeff == -0.375


def test_strategy_kernel_zero_inside_delay_window():
    w = strategy(market(6, 2, 0.8))
    assert w.kernel[0] == 0.0 and w.kernel[1] == 0.0
    assert np.all(w.kernel[2:] != 0.0)
    m = market(6, 2, 0.8)
    a = solve_a(m)
    np.testing.assert_allclose(w.kernel, (weights_b(m, a, 5) - a), rtol=0, atol=0)


# --- value -----------------------------------------------------------------

def test_value_consistent_market():
    m = market(7, 3, 1.0, mu=0.4)
    assert value(m) == pytest.approx(-math.exp(-7 * 0.4**2 / 2.0), rel=1e-14)


def test_value_no_delay_entropy_form():
    m = market(5, 0, 1.8, mu=0.2)
    z = m.sigma_hat**2 / m.sigma**2
    g = z - math.log(z) - 1.0
    want = -math.exp(-5 * 0.04 / 2.0) * math.exp(-5 * g / 2.0)
    assert value(m) == pytest.approx(want, rel=1e-14)


def test_value_is_negative_and_bounded():
    for sh in (0.5, 0.9, 1.0, 1.4, 3.0):
        v = value(market(6, 2, sh, mu=0.1))
        assert -1.0 <= v < 0.0


def test_value_monotone_in_pricing_vol():
    # decreasing below sigma, increasing above sigma
    lows = [value(market(6, 2, sh)) for sh in (0.25, 0.4, 0.6, 0.9)]
    highs = [value(market(6, 2, sh)) for sh in (1.1, 1.6, 2.4, 4.0)]
    assert all(a > b for a, b in zip(lows, lows[1:]))
    assert all(a < b for a, b in zip(highs, highs[1:]))


def test_value_vanishes_in_static_limits():
    small = [value(market(4, 1, sh)) for sh in (1e-1, 1e-2, 1e-3)]
    large = [value(market(4, 1, sh)) for sh in (3.0, 6.0, 12.0)]
    assert all(a < b for a, b in zip(small, small[1:]))
    assert all(a < b for a, b in zip(large, large[1:]))
    assert abs(small[-1]) < 1e-2 and abs(large[-1]) < 1e-2


@st.composite
def _decades_of_markets(draw):
    """n up to 10^6, any delay, sigma from e^-20 to e^20 and sigma_hat within e^3 of it."""
    n = draw(st.integers(min_value=1, max_value=10**6))
    sigma = math.exp(draw(st.floats(min_value=-20.0, max_value=20.0)))
    sigma_hat = sigma * math.exp(draw(st.floats(min_value=-3.0, max_value=3.0)))
    mu = sigma * draw(st.floats(min_value=-2.0, max_value=2.0)) / math.sqrt(n)
    return market(n, draw(st.integers(min_value=0, max_value=n - 1)), sigma_hat, mu=mu, sigma=sigma)


@settings(deadline=None, max_examples=300)
@given(m=_decades_of_markets())
def test_value_is_minus_exp_of_minus_c_hat_to_the_bit(m):
    # the exponent written out as it was before value was defined from c_hat; IEEE rounding is
    # symmetric under negation, so -exp(-c_hat) gives the same bits, -0.0 where both underflow
    sol = solve(m)
    exponent = m.n * (sol.a * m.sigma_hat**2 - m.mu**2) / (2.0 * m.sigma**2)
    assert sol.value.hex() == (-math.exp(exponent - 0.5 * sol.log_det)).hex()


# --- path evaluation -------------------------------------------------------

def test_evaluate_flat_path_prices_static_leg():
    m = market(5, 2, 1.3)
    w = strategy(m)
    gammas, (v,) = solver.evaluate_paths(w, m, np.zeros((1, 5)))
    assert np.array_equal(gammas, np.zeros((1, 5)))
    assert v == pytest.approx(-w.static_coeff * 5 * m.sigma_hat**2, rel=1e-15)


def test_evaluate_consistent_market_collects_drift_gains():
    m = market(4, 1, 1.0, mu=0.5)
    w = strategy(m)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    _, (v,) = solver.evaluate_paths(w, m, x[None, :])
    assert v == pytest.approx(0.5 * x.sum(), rel=1e-14)


def test_evaluate_matches_quadratic_form_oracle():
    m = market(4, 1, 1.4, mu=0.2)
    w = strategy(m)
    rng = np.random.default_rng(11)
    x = rng.normal(m.mu, m.sigma, size=4)
    _, (v,) = solver.evaluate_paths(w, m, x[None, :])
    A = hedge_matrix(m).to_dense()
    a = solve_a(m)
    oracle = (x @ (A - np.eye(4)) @ x + 2 * m.mu * x.sum() - 4 * a * m.sigma_hat**2) / (
        2 * m.sigma**2
    )
    assert v == pytest.approx(oracle, rel=1e-12)


def test_evaluate_rejects_wrong_length():
    m = market(4, 1, 1.0)
    with pytest.raises(LengthMismatch, match="paths of length"):
        solver.evaluate_paths(strategy(m), m, np.zeros((1, 5)))


# --- convolution path evaluation against the per-index loop -----------------

def _loop_evaluate_paths(w, m, x):
    """The per-index evaluation that ``causal_convolve`` replaced, kept as the reference."""
    count, n = x.shape
    gammas = np.empty_like(x)
    for i in range(n):
        acc = np.full(count, w.merton)
        if i > 0:
            acc += x[:, :i] @ w.kernel[i - 1 :: -1]
        gammas[:, i] = acc
    total = x.sum(axis=1)
    v = w.static_coeff * total**2 + (gammas * x).sum(axis=1) - w.static_coeff * n * m.sigma_hat**2
    return gammas, v


def _loop_tolerances(w, m, x, ref_gammas):
    """(holdings, wealth) rounding bounds: both sides sum at most n products, a dot-product bound each."""
    eps, n = np.finfo(float).eps, m.n
    x_max = float(np.max(np.abs(x)))
    gamma_tol = n * eps * (abs(w.merton) + x_max * float(np.sum(np.abs(w.kernel))))
    v_scale = abs(w.static_coeff) * (n * x_max) ** 2 + n * x_max * float(np.max(np.abs(ref_gammas)))
    v_tol = n * eps * v_scale + n * x_max * gamma_tol + n * eps * abs(w.static_coeff) * n * m.sigma_hat**2
    return gamma_tol, v_tol


def _assert_matches_loop(w, m, x, first_exact):
    """evaluate_paths, and the holdings-free ``quadratic_forms`` and ``wealth``, against the loop."""
    gammas, v = solver.evaluate_paths(w, m, x)
    ref_gammas, ref_v = _loop_evaluate_paths(w, m, x)
    gamma_tol, v_tol = _loop_tolerances(w, m, x, ref_gammas)
    assert np.max(np.abs(gammas - ref_gammas)) <= gamma_tol
    assert np.max(np.abs(v - ref_v)) <= v_tol
    # the loop's sum of gamma x without the Merton part is the kernel's quadratic form
    ref_form = np.sum((ref_gammas - w.merton) * x, axis=1)
    (form,) = solver.quadratic_forms(x, w.kernel)
    assert np.max(np.abs(form - ref_form)) <= v_tol
    assert np.max(np.abs(solver.wealth(w, m, x) - ref_v)) <= v_tol
    assert np.array_equal(solver.wealth(w, m, x, form=form), solver.wealth(w, m, x))
    assert np.array_equal(gammas[:, :first_exact], ref_gammas[:, :first_exact])
    assert np.all(gammas[:, :first_exact] == w.merton)


# n = 129 and 130 sit on each side of the crossover at D = 0; 2048 takes the FFT
SOLUTION_CASES = sorted(
    {
        (n, D, ratio)
        for n in (1, 2, 7, solver.DIRECT_CONVOLVE_MAX + 1, solver.DIRECT_CONVOLVE_MAX + 2, 256, 2048)
        for D in (0, 1, n - 1)
        if D < n
        for ratio in (0.7, 1.4)
    }
)


@pytest.mark.parametrize("n, D, ratio", SOLUTION_CASES, ids=lambda v: str(v))
def test_evaluate_paths_matches_loop_for_solution_weights(n, D, ratio):
    m = market(n, D, ratio, mu=0.3 / n, sigma=0.8)
    w = strategy(m)
    x = np.random.default_rng(n * 100 + D).normal(m.mu, m.sigma, size=(40, n))
    # kernel lags 1..D are exact zeros, so the first D + 1 holdings are exact
    _assert_matches_loop(w, m, x, first_exact=D + 1)


def _hand_kernel(kind, n, rng):
    kernel = rng.normal(size=n - 1)
    if kind == "zero":
        kernel[:] = 0.0
    elif kind == "leading-zeros":
        kernel[: min(3, n - 1)] = 0.0
        kernel[len(kernel) // 2] = 0.0  # an interior zero as well
    return kernel


# a random kernel has n - 1 outputs: the middle two n sit on each side of the crossover
@pytest.mark.parametrize("n", [2, 7, solver.DIRECT_CONVOLVE_MAX + 1, solver.DIRECT_CONVOLVE_MAX + 2, 256, 2048])
@pytest.mark.parametrize("kind", ["random", "zero", "leading-zeros"])
def test_evaluate_paths_matches_loop_for_hand_built_kernels(kind, n):
    rng = np.random.default_rng(n)
    m = market(n, 0, 1.3, mu=0.05)
    w = solver.StrategyWeights(merton=0.4, kernel=_hand_kernel(kind, n, rng), static_coeff=-0.2)
    x = rng.normal(m.mu, m.sigma, size=(30, n))
    nonzero = np.flatnonzero(w.kernel)
    first_exact = (int(nonzero[0]) if nonzero.size else n - 1) + 1
    _assert_matches_loop(w, m, x, first_exact=first_exact)


# n = 10 takes the direct product, n = 300 the FFT
@pytest.mark.parametrize("n", [10, 300])
def test_short_hand_built_kernel_raises_length_mismatch(n):
    m = market(n, 0, 1.3, mu=0.05)
    w = solver.StrategyWeights(merton=0.4, kernel=np.array([0.5, -0.25]), static_coeff=-0.2)
    x = np.random.default_rng(n).normal(m.mu, m.sigma, size=(3, n))
    with pytest.raises(LengthMismatch, match=f"need n - 1 = {n - 1} taps"):
        solver.evaluate_paths(w, m, x)
    with pytest.raises(LengthMismatch, match=f"need n - 1 = {n - 1} taps"):
        solver.wealth(w, m, x)
    full = np.random.default_rng(n + 1).normal(size=n - 1)  # one full taps array does not excuse the short one
    with pytest.raises(LengthMismatch, match=f"need n - 1 = {n - 1} taps"):
        solver.quadratic_forms(x, full, w.kernel)


# --- V without the holdings: quadratic_forms and wealth ---------------------

def test_quadratic_forms_share_one_call_across_branches():
    n = 300
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, n))
    sparse = np.zeros(n - 1)
    sparse[-10:] = rng.normal(size=10)  # 10 outputs past its first nonzero lag: the direct product
    dense, other = rng.normal(size=(2, n - 1))  # 299 outputs each: the FFT
    forms = solver.quadratic_forms(x, dense, sparse, np.zeros(n - 1), other)
    assert forms.shape == (4, 6)
    assert np.array_equal(forms[1], np.sum(x * solver.causal_convolve(x, sparse), axis=1))
    assert np.array_equal(forms[2], np.zeros(6))
    for form, taps in ((forms[0], dense), (forms[3], other)):
        assert form == pytest.approx(np.sum(x * solver.causal_convolve(x, taps), axis=1), rel=1e-12)
        # the shared spectrum, scaled in place for the last form only, gives each form as taken alone
        assert np.array_equal(form, solver.quadratic_forms(x, taps)[0])


def test_quadratic_forms_find_each_lag_once_on_the_direct_branch(monkeypatch):
    n = 40
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, n))
    taps = list(rng.normal(size=(2, n - 1)))
    taps[1][:3] = 0.0  # a first nonzero lag past 0
    seen = []
    lagged_taps = solver._lagged_taps

    def counted(t, size):
        seen.append(t)
        return lagged_taps(t, size)

    monkeypatch.setattr(solver, "_lagged_taps", counted)
    forms = solver.quadratic_forms(x, taps[0], taps[1])
    assert len(seen) == 2 and seen[0] is taps[0] and seen[1] is taps[1]  # no second search by causal_convolve
    for form, t in zip(forms, taps):
        assert np.array_equal(form, np.sum(x * solver.causal_convolve(x, t), axis=1))


def test_wealth_takes_a_batch_of_paths_of_length_n_only():
    m = market(4, 1, 1.0)
    with pytest.raises(LengthMismatch, match="paths of length"):
        solver.wealth(strategy(m), m, np.zeros(4))
    with pytest.raises(LengthMismatch, match="paths of length"):
        solver.wealth(strategy(m), m, np.zeros((2, 5)))


def test_solution_bundle():
    m = market(6, 2, 1.3, mu=0.1)
    sol = solve(m)
    assert sol.a == solve_a(m)
    assert sol.value == value(m)
    assert len(sol.b) == 5
    assert sol.static_coeff == pytest.approx(sol.a / 2.0)
    assert sol.merton == pytest.approx(0.1)


# --- one solution, many views ----------------------------------------------

VIEW_MARKETS = [
    market(1, 0, 1.3, mu=0.1),
    market(2, 1, 0.5),
    market(6, 5, 0.7, mu=0.1),
    market(8, 2, 1.3, mu=0.1),
    market(16, 0, 2.0, mu=0.2, sigma=0.8),
    market(33, 3, 1.0),
]


@pytest.mark.parametrize("m", VIEW_MARKETS, ids=lambda m: f"n{m.n}-D{m.delay}")
def test_solution_views_equal_standalone_functions(m):
    sol = solve(m)
    a = solve_a(m)
    b = weights_b(m, a, m.n - 1)
    log_det = log_det_closed_form(a, m.delay, m.n)
    assert (sol.a, sol.log_det) == (a, log_det)
    exponent = m.n * (a * m.sigma_hat**2 - m.mu**2) / (2.0 * m.sigma**2)
    assert value(m) == sol.value == -math.exp(exponent - 0.5 * log_det)
    assert build_dual(m).c_hat == sol.c_hat == -exponent + 0.5 * log_det
    w = strategy(m)
    assert np.array_equal(w.kernel, (b - a) / m.sigma**2)
    assert (w.merton, w.static_coeff) == (m.mu / m.sigma**2, a / (2.0 * m.sigma**2))
    assert np.array_equal(sol.b, b)
    assert np.array_equal(hedge_matrix(m).first_row, np.concatenate([[a + 1.0], b]))


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of solve_a and weights_b, also if the dual module binds them itself."""
    counts = {"solve_a": 0, "weights_b": 0}
    for name in counts:
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solver, name, counted)
        monkeypatch.setattr(dual, name, counted, raising=False)
    return counts


@pytest.mark.parametrize(
    "entry, uses_weights",
    [
        (solve, False),
        (value, False),
        (build_dual, False),
        (strategy, True),
        (hedge_matrix, True),
        (lambda m: verification_residual(m, np.ones((1, m.n))), True),
    ],
    ids=["solve", "value", "build_dual", "strategy", "hedge_matrix",
         "verification_residual"],
)
def test_each_entry_point_solves_once(call_counts, entry, uses_weights):
    entry(market(8, 2, 1.3, mu=0.1))
    assert call_counts == {"solve_a": 1, "weights_b": int(uses_weights)}


def test_weights_are_built_on_first_access_only(call_counts):
    sol = solve(market(8, 2, 1.3))
    assert call_counts["weights_b"] == 0
    _ = (sol.strategy, sol.matrix, sol.b)
    assert call_counts["weights_b"] == 1


EQ_MARKET = market(6, 2, 1.3, mu=0.1)
ARRAY_RESULTS = {
    "StrategyWeights": lambda: strategy(EQ_MARKET),
    "DualMeasure": lambda: build_dual(EQ_MARKET),
    "SymToeplitz": lambda: hedge_matrix(EQ_MARKET),
    "PathBatch": lambda: generate(EQ_MARKET, 100, seed=1),
    "KernelSpec": lambda: kernel_spec(0.2, 1.0, 1.5),
    "Table": lambda: figure2_data([0.2, 0.5], [0.0, 0.5]),
}


@pytest.mark.parametrize("name", ARRAY_RESULTS)
def test_array_holding_results_compare_by_identity(name):
    first, second = ARRAY_RESULTS[name](), ARRAY_RESULTS[name]()
    assert type(first).__name__ == name
    assert first == first
    assert first != second  # no element-wise array comparison, so nothing raises
    assert hash(first) != hash(second)


def test_lengths_are_read_off_the_arrays():
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["alpha", "H", "c"]
    assert [f.name for f in dataclasses.fields(PathBatch)] == ["seed", "increments"]
    spec = kernel_spec(0.15, 1.0, 1.5)
    assert spec.K == len(spec.c) == 7
    batch = generate(EQ_MARKET, 100, seed=1)
    assert batch.increments.shape == (100, 6)
    assert batch.count == 100


# --- brute force -----------------------------------------------------------

def test_brute_force_trivial_point():
    got, params = brute_force_optimum(market(2, 1, 1.0))
    assert got == pytest.approx(-1.0, abs=1e-8)
    assert abs(params[0]) < 1e-4  # no static position needed


def test_brute_force_matches_formula():
    m = market(2, 1, 1.5, mu=0.2)
    got, _ = brute_force_optimum(m)
    assert got == pytest.approx(value(m), abs=1e-6)


def test_brute_force_size_guard():
    with pytest.raises(SizeError):
        brute_force_optimum(market(4, 1, 1.0))
