import math
import tracemalloc

import numpy as np
import pytest

from delayed_hedge import DiscreteMarket, IntegrabilityError, LengthMismatch, SizeError, value
from delayed_hedge.mc import (
    ANALYTIC_MAX_N,
    MAX_PATH_STEPS,
    analytic_quadratic_utility,
    brute_force_optimum,
    estimate_utility,
    generate,
    strategy_quadratic_form,
)
from delayed_hedge.solver import StrategyWeights, strategy

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
    rng = np.random.default_rng(123)
    from delayed_hedge import evaluate_on_path

    for _ in range(5):
        x = rng.normal(m.mu, m.sigma, size=m.n)
        _, v = evaluate_on_path(w, m, x)
        assert v == pytest.approx(0.5 * x @ quad @ x + lin @ x + const, rel=1e-12)


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


@pytest.mark.parametrize("n, delay", [(2, 0), (3, 1), (3, 0)])
def test_brute_force_matches_formula_with_dynamic_terms(n, delay):
    # D < n - 1 leaves the search holdings that load on observed increments
    m = DiscreteMarket(n=n, delay=delay, mu=0.1, sigma=1.0, sigma_hat=1.3)
    got, params = brute_force_optimum(m)
    assert len(params) == 2 + n + (n - delay) * (n - delay - 1) // 2
    assert got == pytest.approx(value(m), abs=1e-9)
