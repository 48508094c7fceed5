import math
import tracemalloc

import numpy as np
import pytest

from delayed_hedge import DiscreteMarket, IntegrabilityError, LengthMismatch, SizeError, value
from delayed_hedge.mc import (
    ANALYTIC_MAX_N,
    MAX_PATH_STEPS,
    PathBatch,
    analytic_quadratic_utility,
    brute_force_optimum,
    estimate_utility,
    generate,
    reflection_coefficients,
    strategy_quadratic_form,
    strategy_toeplitz_form,
    toeplitz_quadratic_utility,
)
from delayed_hedge.solver import StrategyWeights, evaluate_paths, strategy
from delayed_hedge.toeplitz import SymToeplitz

ACCEPTANCE_MARKET = DiscreteMarket(n=5, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)


def test_generate_is_deterministic():
    m = ACCEPTANCE_MARKET
    a = generate(m, 50, seed=42)
    b = generate(m, 50, seed=42)
    assert np.array_equal(a.increments, b.increments)
    c = generate(m, 50, seed=43)
    assert not np.array_equal(a.increments, c.increments)


def test_generate_moments():
    m = DiscreteMarket(n=10, delay=0, mu=0.05, sigma=0.7, sigma_hat=0.7)
    batch = generate(m, 100000, seed=5)
    draws = batch.increments.ravel()
    assert abs(draws.mean() - m.mu) <= 4 * m.sigma / math.sqrt(draws.size)
    assert abs(draws.var() - m.sigma**2) <= 0.05 * m.sigma**2


def test_generate_count_guard():
    with pytest.raises(LengthMismatch):
        generate(ACCEPTANCE_MARKET, 0, seed=1)


def test_generate_caps_path_steps():
    m = ACCEPTANCE_MARKET
    assert 100_000 * m.n <= MAX_PATH_STEPS  # the README's simulate example stays allowed
    with pytest.raises(SizeError, match="path-steps"):
        generate(m, MAX_PATH_STEPS // m.n + 1, seed=1)


def test_estimate_matches_formula_value():
    m = ACCEPTANCE_MARKET
    report = estimate_utility(generate(m, 100000, seed=42), strategy(m), m)
    assert abs(report.empirical_mean - value(m)) <= 4 * report.std_error
    assert report.analytic == pytest.approx(value(m), rel=1e-10)
    assert report.n_paths == 100000
    assert report.ess > 1000.0


def test_estimate_merton_only_when_consistent():
    m = DiscreteMarket(n=4, delay=1, mu=0.2, sigma=1.0, sigma_hat=1.0)
    report = estimate_utility(generate(m, 100000, seed=7), strategy(m), m)
    want = -math.exp(-4 * 0.04 / 2.0)
    assert abs(report.empirical_mean - want) <= 4 * report.std_error


def test_estimate_zero_strategy_driftless():
    m = DiscreteMarket(n=4, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0)
    flat = StrategyWeights(merton=0.0, kernel=np.zeros(3), static_coeff=0.0)
    report = estimate_utility(generate(m, 1000, seed=3), flat, m)
    assert report.empirical_mean == pytest.approx(-1.0, abs=0)
    assert report.std_error == 0.0


def test_estimate_rejects_mismatched_batch():
    other = DiscreteMarket(n=4, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0)
    with pytest.raises(LengthMismatch):
        estimate_utility(generate(other, 100, seed=1), strategy(ACCEPTANCE_MARKET), ACCEPTANCE_MARKET)


def test_perturbed_strategies_are_suboptimal():
    m = ACCEPTANCE_MARKET
    opt = value(m)
    base = strategy(m)
    for scale in (0.5, 1.5):
        w = StrategyWeights(merton=base.merton, kernel=scale * base.kernel, static_coeff=base.static_coeff)
        report = estimate_utility(generate(m, 100000, seed=42), w, m)
        assert report.empirical_mean <= opt + 4 * report.std_error
        # analytic comparison is exact: strictly worse than the optimum
        assert report.analytic < opt


def test_mc_consistency_across_seeds():
    # at least 95% of 40 independent seeds land within 4 standard errors
    m = ACCEPTANCE_MARKET
    w = strategy(m)
    hits = 0
    for seed in range(1, 41):
        rep = estimate_utility(generate(m, 20000, seed=seed), w, m)
        hits += abs(rep.empirical_mean - rep.analytic) <= 4 * rep.std_error
    assert hits >= 38


def test_report_json_fields():
    m = ACCEPTANCE_MARKET
    report = estimate_utility(generate(m, 200, seed=9), strategy(m), m)
    doc = report.to_json()
    assert set(doc) == {"empirical_mean", "std_error", "analytic", "n_paths", "seed", "ess"}
    assert doc["seed"] == 9


def test_analytic_constant_only():
    m = DiscreteMarket(n=3, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0)
    got = analytic_quadratic_utility(np.zeros((3, 3)), np.zeros(3), 0.7, m)
    assert got == pytest.approx(-math.exp(-0.7), rel=1e-15)


def test_analytic_matches_formula_for_optimal_form():
    for m in [
        ACCEPTANCE_MARKET,
        DiscreteMarket(n=8, delay=3, mu=0.2, sigma=1.0, sigma_hat=0.6),
        DiscreteMarket(n=6, delay=0, mu=0.0, sigma=2.0, sigma_hat=1.0),
    ]:
        quad, lin, const = strategy_quadratic_form(strategy(m), m)
        assert analytic_quadratic_utility(quad, lin, const, m) == pytest.approx(
            value(m), rel=1e-10
        )


@pytest.mark.parametrize("n, delay, sigma_hat", [(1, 0, 1.3), (5, 2, 1.3), (9, 3, 0.6)])
def test_quadratic_form_matches_the_ones_matrix_sum(n, delay, sigma_hat):
    m = DiscreteMarket(n=n, delay=delay, mu=0.1, sigma=1.0, sigma_hat=sigma_hat)
    w = strategy(m)
    quad, _, _ = strategy_quadratic_form(w, m)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    kernel_full = np.concatenate([[0.0], w.kernel])
    assert np.array_equal(quad, kernel_full[lag] + 2.0 * w.static_coeff * np.ones((n, n)))


def test_analytic_rejects_non_integrable_form():
    m = DiscreteMarket(n=3, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0)
    with pytest.raises(IntegrabilityError):
        analytic_quadratic_utility(-3.0 * np.eye(3), np.zeros(3), 0.0, m)


def test_quadratic_form_reproduces_pathwise_value():
    m = ACCEPTANCE_MARKET
    w = strategy(m)
    quad, lin, const = strategy_quadratic_form(w, m)
    x = np.random.default_rng(123).normal(m.mu, m.sigma, size=(5, m.n))
    _, v = evaluate_paths(w, m, x)
    assert v == pytest.approx(0.5 * np.einsum("pi,ij,pj->p", x, quad, x) + x @ lin + const, rel=1e-12)


def test_estimate_above_the_analytic_cap_builds_no_n_by_n_array():
    n = ANALYTIC_MAX_N + 1
    m = DiscreteMarket(n=n, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3)
    batch, w = generate(m, 100, seed=1), strategy(m)
    tracemalloc.start()
    try:
        report = estimate_utility(batch, w, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.analytic is None
    assert math.isfinite(report.empirical_mean)
    assert peak < n * n * 8 / 4  # one n x n float array is 134 MB; about 16 MB measured


def test_estimate_moments_overflow_without_warnings():
    m = DiscreteMarket(n=8, delay=1, mu=0.1, sigma=1.0, sigma_hat=2.0)
    base = strategy(m)
    w = StrategyWeights(merton=base.merton, kernel=-50.0 * base.kernel, static_coeff=base.static_coeff)
    with np.errstate(all="raise"):
        report = estimate_utility(generate(m, 100, seed=1), w, m)
    assert not math.isfinite(report.std_error)


def test_moments_stay_finite_when_every_v_is_near_400():
    # exp(-400) ~ 2e-174 squares below the smallest double, so unshifted moments lose ess and std_error
    m = DiscreteMarket(n=4, delay=0, mu=1.0, sigma=1.0, sigma_hat=1.0)  # V is the sum of the increments
    x = 100.0 + 0.1 * np.random.default_rng(7).standard_normal((100, 4))
    v = x.sum(axis=1)
    report = estimate_utility(PathBatch(n=4, count=100, seed=7, increments=x), strategy(m), m)
    assert report.empirical_mean == pytest.approx(-np.mean(np.exp(-v)), rel=1e-12)
    weights = np.exp(400.0 - v)
    assert report.std_error == pytest.approx(math.exp(-400.0) * np.std(weights, ddof=1) / 10.0, rel=1e-12)
    assert report.std_error > 0.0
    assert report.ess == pytest.approx(weights.sum() ** 2 / np.sum(weights * weights), rel=1e-12)
    assert 90.0 < report.ess <= 100.0


@pytest.mark.parametrize("n, delay", [(2, 0), (3, 1), (3, 0)])
def test_brute_force_matches_formula_with_dynamic_terms(n, delay):
    # D < n - 1 leaves the search holdings that load on observed increments
    m = DiscreteMarket(n=n, delay=delay, mu=0.1, sigma=1.0, sigma_hat=1.3)
    got, params = brute_force_optimum(m)
    assert len(params) == 2 + n + (n - delay) * (n - delay - 1) // 2
    assert got == pytest.approx(value(m), abs=1e-9)


def _forms(m, scale=1.0, merton_shift=0.0):
    base = strategy(m)
    return StrategyWeights(merton=base.merton + merton_shift, kernel=scale * base.kernel, static_coeff=base.static_coeff)


def _both_oracles(w, m):
    """(Levinson value or None, dense value or None): None where the form is not integrable."""
    out = []
    for run in (
        lambda: toeplitz_quadratic_utility(*strategy_toeplitz_form(w, m), m),
        lambda: analytic_quadratic_utility(*strategy_quadratic_form(w, m), m),
    ):
        try:
            out.append(run())
        except IntegrabilityError:
            out.append(None)
    return out


LEVINSON_MARKETS = [
    DiscreteMarket(n=1, delay=0, mu=0.1, sigma=1.0, sigma_hat=1.3),
    DiscreteMarket(n=2, delay=1, mu=0.0, sigma=1.0, sigma_hat=0.7),
    ACCEPTANCE_MARKET,
    DiscreteMarket(n=8, delay=3, mu=0.2, sigma=1.0, sigma_hat=0.6),
    DiscreteMarket(n=6, delay=0, mu=0.0, sigma=2.0, sigma_hat=1.0),
    DiscreteMarket(n=32, delay=15, mu=0.1, sigma=1.0, sigma_hat=2.0),
    DiscreteMarket(n=300, delay=7, mu=0.01, sigma=0.1, sigma_hat=0.13),
]


@pytest.mark.parametrize("m", LEVINSON_MARKETS, ids=lambda m: f"n{m.n}-D{m.delay}")
@pytest.mark.parametrize("merton_shift", [0.0, 0.3])
def test_levinson_oracle_matches_the_dense_cholesky(m, merton_shift):
    w = _forms(m, merton_shift=merton_shift)
    fast, dense = _both_oracles(w, m)
    assert fast == pytest.approx(dense, rel=1e-10)
    if merton_shift == 0.0:
        assert fast == pytest.approx(value(m), rel=1e-10)


def _min_eigenvalue(w, m):
    quad, _, _ = strategy_quadratic_form(w, m)
    return float(np.linalg.eigvalsh(np.eye(m.n) + m.sigma**2 * quad)[0])


@pytest.mark.parametrize("m", LEVINSON_MARKETS[2:6], ids=lambda m: f"n{m.n}-D{m.delay}")
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_levinson_and_dense_agree_across_the_integrability_boundary(m, direction):
    # scale the kernel away from the optimum (integrable) until I + sigma^2 Q stops being positive definite
    inside, outside = 1.0, direction * 2.0
    while _min_eigenvalue(_forms(m, outside), m) > 0.0:
        inside, outside = outside, 2.0 * outside
        if abs(outside) > 1e6:
            pytest.skip("the kernel scale never leaves the integrable region")
    for _ in range(60):
        middle = 0.5 * (inside + outside)
        inside, outside = (middle, outside) if _min_eigenvalue(_forms(m, middle), m) > 0.0 else (inside, middle)
    boundary = 0.5 * (inside + outside)
    for factor in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
        for shift in (0.0, 0.3):
            w = _forms(m, 1.0 + factor * (boundary - 1.0), shift)
            fast, dense = _both_oracles(w, m)
            assert (fast is None) == (dense is None) == (factor > 1.0)
            if fast is not None:
                assert fast == pytest.approx(dense, rel=1e-10)


def test_reflection_coefficients_stop_at_the_first_that_is_not_below_one():
    column = np.array([1.0, 0.5, 0.9, 0.1, 0.2])  # not positive definite
    alphas = reflection_coefficients(column)
    assert np.all(np.abs(alphas[:-1]) < 1.0) and not abs(alphas[-1]) < 1.0
    assert np.linalg.eigvalsh(SymToeplitz(column).to_dense())[0] < 0.0
    spd = np.array([2.0, 0.5, 0.2, 0.1])
    assert len(reflection_coefficients(spd)) == 3
    log_det = 4 * math.log(2.0) + math.fsum(np.arange(3, 0, -1) * np.log1p(-reflection_coefficients(spd) ** 2))
    assert log_det == pytest.approx(math.log(np.linalg.det(SymToeplitz(spd).to_dense())), rel=1e-14)


def test_estimate_runs_the_levinson_oracle_without_an_n_by_n_array():
    n = 2048  # a dense fallback would peak near 170 MB, not more
    m = DiscreteMarket(n=n, delay=20, mu=0.1 / n, sigma=1.0 / math.sqrt(n), sigma_hat=1.3 / math.sqrt(n))
    batch, w = generate(m, 16, seed=1), strategy(m)
    estimate_utility(batch, w, m)  # scipy.special loaded outside the trace
    tracemalloc.start()
    try:
        report = estimate_utility(batch, w, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.analytic == pytest.approx(value(m), rel=1e-10)
    assert peak < n * n * 8 / 8  # one n x n float array is 34 MB; about 1.3 MB measured


@pytest.mark.parametrize("n, delay", [(1, 0), (2, 1), (5, 2), (32, 4)])
def test_estimate_runs_the_levinson_oracle_at_small_n(monkeypatch, n, delay):
    def dense_oracle(*args):
        raise AssertionError("estimate_utility ran the dense oracle")

    monkeypatch.setattr("delayed_hedge.mc.analytic_quadratic_utility", dense_oracle)
    m = DiscreteMarket(n=n, delay=delay, mu=0.1 / n, sigma=1.0 / math.sqrt(n), sigma_hat=1.3 / math.sqrt(n))
    report = estimate_utility(generate(m, 16, seed=3), strategy(m), m)
    assert report.analytic == pytest.approx(value(m), rel=1e-10)
