import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import (
    DiscreteMarket,
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
from delayed_hedge import ContinuousMarket, dual, solver
from delayed_hedge.convergence import build_bn, figure2_data
from delayed_hedge.dual import build_dual, verification_residual
from delayed_hedge.kernel import kernel_spec
from delayed_hedge.mc import generate
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


# --- weights ---------------------------------------------------------------

def test_weights_zero_cases():
    m = market(6, 2, 1.0)
    assert np.array_equal(weights_b(m, 0.0, 5), np.zeros(5))
    m0 = market(6, 0, 1.7)
    assert np.array_equal(weights_b(m0, solve_a(m0), 5), np.zeros(5))


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


def _assert_matches_loop(w, m, x, first_exact):
    gammas, v = solver.evaluate_paths(w, m, x)
    ref_gammas, ref_v = _loop_evaluate_paths(w, m, x)
    # both sides sum at most n products: a dot-product rounding bound each
    eps, n = np.finfo(float).eps, m.n
    x_max = float(np.max(np.abs(x)))
    gamma_tol = n * eps * (abs(w.merton) + x_max * float(np.sum(np.abs(w.kernel))))
    assert np.max(np.abs(gammas - ref_gammas)) <= gamma_tol
    v_scale = abs(w.static_coeff) * (n * x_max) ** 2 + n * x_max * float(np.max(np.abs(ref_gammas)))
    v_tol = n * eps * v_scale + n * x_max * gamma_tol + n * eps * abs(w.static_coeff) * n * m.sigma_hat**2
    assert np.max(np.abs(v - ref_v)) <= v_tol
    assert np.array_equal(gammas[:, :first_exact], ref_gammas[:, :first_exact])
    assert np.all(gammas[:, :first_exact] == w.merton)


SOLUTION_CASES = sorted(
    {(n, D, ratio) for n in (1, 2, 7, 256) for D in (0, 1, n - 1) if D < n for ratio in (0.7, 1.4)}
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
@pytest.mark.parametrize("n", [2, 7, solver.DIRECT_CONVOLVE_MAX + 1, solver.DIRECT_CONVOLVE_MAX + 2, 256])
@pytest.mark.parametrize("kind", ["random", "zero", "leading-zeros"])
def test_evaluate_paths_matches_loop_for_hand_built_kernels(kind, n):
    rng = np.random.default_rng(n)
    m = market(n, 0, 1.3, mu=0.05)
    w = solver.StrategyWeights(merton=0.4, kernel=_hand_kernel(kind, n, rng), static_coeff=-0.2)
    x = rng.normal(m.mu, m.sigma, size=(30, n))
    nonzero = np.flatnonzero(w.kernel)
    first_exact = (int(nonzero[0]) if nonzero.size else n - 1) + 1
    _assert_matches_loop(w, m, x, first_exact=first_exact)


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
    "StepFunction": lambda: build_bn(ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.5), 8),
    "Table": lambda: figure2_data([0.2, 0.5], [0.0, 0.5]),
}


@pytest.mark.parametrize("name", ARRAY_RESULTS)
def test_array_holding_results_compare_by_identity(name):
    first, second = ARRAY_RESULTS[name](), ARRAY_RESULTS[name]()
    assert type(first).__name__ == name
    assert first == first
    assert first != second  # no element-wise array comparison, so nothing raises
    assert hash(first) != hash(second)


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
