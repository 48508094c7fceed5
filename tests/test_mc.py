import dataclasses
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import DiscreteMarket, DomainError, IntegrabilityError, LengthMismatch, SizeError, mc, value
from delayed_hedge.mc import (
    DURBIN_STEP_BUDGET,
    DURBIN_TAIL_ETA,
    MAX_PATH_STEPS,
    PathBatch,
    analytic_quadratic_utility,
    brute_force_optimum,
    estimate_utility,
    generate,
    reflection_coefficients,
    reflection_log_det,
    strategy_toeplitz_form,
    toeplitz_log_neg_utility,
)
from delayed_hedge.solver import StrategyWeights, evaluate_paths, solve, strategy, wealth
from delayed_hedge.toeplitz import SymToeplitz

ACCEPTANCE_MARKET = DiscreteMarket(n=5, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)


def test_generate_is_deterministic():
    m = ACCEPTANCE_MARKET
    a = generate(m, 50, seed=42)
    b = generate(m, 50, seed=42)
    assert np.array_equal(a.increments, b.increments)
    c = generate(m, 50, seed=43)
    assert not np.array_equal(a.increments, c.increments)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_a_seeds_first_paths_are_the_same_at_every_count(n):
    m = DiscreteMarket(n=n, delay=0, mu=0.1, sigma=0.7, sigma_hat=0.7)
    largest = generate(m, 300, seed=9).increments
    for count in (1, 2, 17, 299):
        assert np.array_equal(generate(m, count, seed=9).increments, largest[:count])


def test_generate_is_the_scaled_philox_ziggurat_stream():
    m = ACCEPTANCE_MARKET
    z = np.random.Generator(np.random.Philox(key=np.uint64(42))).standard_normal((20, m.n))
    assert np.array_equal(generate(m, 20, seed=42).increments, z * m.sigma + m.mu)


def test_generate_reproduces_each_seed_after_another_seed():
    m = ACCEPTANCE_MARKET
    first, second, again = (generate(m, 30, seed=seed).increments for seed in (1, 2, 1))
    for seed, got in ((1, first), (2, second), (1, again)):
        z = np.random.Generator(np.random.Philox(key=np.uint64(seed))).standard_normal((30, m.n))
        assert got.tobytes() == (z * m.sigma + m.mu).tobytes()


def test_generate_reads_no_os_entropy():
    # numpy's SeedSequence() draws its entropy through the randbits it imported from secrets; a
    # new thread builds its own generator
    with mock.patch("numpy.random.bit_generator.randbits", side_effect=AssertionError("OS entropy read")) as randbits:
        for seed in (1, 2, 3):
            generate(ACCEPTANCE_MARKET, 3, seed=seed)
        worker = threading.Thread(target=generate, args=(ACCEPTANCE_MARKET, 3, 4))
        worker.start()
        worker.join()
    assert randbits.call_count == 0


def test_generate_keeps_each_threads_stream_under_concurrent_calls():
    # four threads on two cores, each switching seeds, with a short switch interval to interleave
    # the state setting and the draws of different threads
    m = ACCEPTANCE_MARKET
    want = {seed: generate(m, 40, seed=seed).increments.tobytes() for seed in range(8)}
    mismatches = []

    def worker(offset):
        for i in range(300):
            seed = (offset + i) % 8
            if generate(m, 40, seed=seed).increments.tobytes() != want[seed]:
                mismatches.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_generate_moments():
    m = DiscreteMarket(n=10, delay=0, mu=0.05, sigma=0.7, sigma_hat=0.7)
    batch = generate(m, 100000, seed=5)
    draws = batch.increments.ravel()
    assert abs(draws.mean() - m.mu) <= 4 * m.sigma / math.sqrt(draws.size)
    assert abs(draws.var() - m.sigma**2) <= 0.05 * m.sigma**2


def test_generate_count_guard():
    for count in (0, 2.5, 3.0, True, "3"):
        with pytest.raises(LengthMismatch):
            generate(ACCEPTANCE_MARKET, count, seed=1)


@pytest.mark.parametrize("seed", [1.5, 1.0, -1, 2**64, True, "1", None, np.int64(-1), np.float64(1.0)])
def test_generate_refuses_a_seed_that_is_not_an_integer_in_range(seed):
    # the seed is the Philox key's first word: 1.5 would draw seed 1's paths under another label
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
        generate(ACCEPTANCE_MARKET, 3, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7), 2**64 - 1, np.uint64(2**64 - 1)])
def test_generate_keeps_the_bits_of_every_valid_seed(seed):
    m = ACCEPTANCE_MARKET
    batch = generate(m, 4, seed=seed)
    z = np.random.Generator(np.random.Philox(key=np.uint64(seed))).standard_normal((4, m.n))
    assert np.array_equal(batch.increments, z * m.sigma + m.mu)
    assert batch.seed == seed


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
    assert set(doc) == {
        "empirical_mean", "std_error", "analytic", "n_paths", "seed", "ess", "log_neg_mean", "relative_std_error",
        "log_neg_analytic",
    }
    assert doc["seed"] == 9


def _long_horizon_report(n):
    m = DiscreteMarket(n=n, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3)  # simulate's README market at length n
    return estimate_utility(generate(m, 100, seed=1), strategy(m), m)


def test_log_scale_moments_stay_finite_where_the_mean_underflows():
    report = _long_horizon_report(60000)
    assert report.empirical_mean == 0.0 and report.std_error == 0.0  # exp(-V) underflows on every path
    assert math.isfinite(report.log_neg_mean) and report.log_neg_mean < -745.0
    assert math.isfinite(report.relative_std_error) and report.relative_std_error > 0.0


def test_log_scale_moments_match_the_mean_where_it_is_representable():
    report = _long_horizon_report(20000)
    assert report.empirical_mean < 0.0
    assert report.log_neg_mean == pytest.approx(math.log(-report.empirical_mean), rel=1e-13)
    assert report.relative_std_error == pytest.approx(report.std_error / -report.empirical_mean, rel=1e-13)


def test_the_analytic_exponent_stays_finite_where_analytic_underflows():
    report = _long_horizon_report(60000)
    assert report.analytic == 0.0  # -exp(-c_hat) underflows: c_hat is about 1070
    assert math.isfinite(report.log_neg_analytic) and report.log_neg_analytic < -745.0
    m = DiscreteMarket(n=60000, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3)  # _long_horizon_report's market
    assert report.log_neg_analytic == pytest.approx(-solve(m).c_hat, rel=1e-13)


@pytest.mark.parametrize("n", [5, 20000])
def test_the_analytic_exponent_is_the_log_of_analytic_where_it_is_representable(n):
    report = _long_horizon_report(n)
    assert report.analytic < 0.0
    assert report.log_neg_analytic == pytest.approx(math.log(-report.analytic), rel=1e-13)


def _moments_by_numpy(v):
    """(mean, std_error, ess) of -exp(-v) from np.mean, np.std(ddof=1) and np.sum(np.abs(y)),
    with y = -exp(shift - v), shift = max(min v, 0): the form estimate_utility must repeat bit for bit."""
    count = len(v)
    shift = max(float(np.min(v)), 0.0)
    y = -np.exp(shift - v)
    mean = float(np.mean(y)) * math.exp(-shift)
    std_error = float(np.std(y, ddof=1) / math.sqrt(count)) * math.exp(-shift) if count > 1 else 0.0
    ess = float(np.sum(np.abs(y)) ** 2 / np.sum(y * y))
    return mean, std_error, ess


@pytest.mark.parametrize("paths", [1, 2, 101, 1000])
@pytest.mark.parametrize("case", ["direct", "fft", "shifted"])
def test_moments_repeat_np_mean_std_and_abs_sum_bit_for_bit(monkeypatch, paths, case):
    # n = 16 takes the direct product for V, n = 300 the FFT; "shifted" lifts every V above 0
    n, lift = {"direct": (16, 0.0), "fft": (300, 0.0), "shifted": (16, 50.0)}[case]
    m = DiscreteMarket(n=n, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)
    seen = []

    def recorded_wealth(*args):
        seen.append(wealth(*args) + lift)
        return seen[-1]

    monkeypatch.setattr(mc, "wealth", recorded_wealth)
    report = estimate_utility(generate(m, paths, seed=5), strategy(m), m)
    (v,) = seen
    if case == "shifted":
        assert np.all(v > 0.0)
    got = (report.empirical_mean, report.std_error, report.ess)
    assert [repr(x) for x in got] == [repr(x) for x in _moments_by_numpy(v)]


def strategy_quadratic_form(w: StrategyWeights, m: DiscreteMarket):
    """``strategy_toeplitz_form`` with Q as a dense n x n matrix, for ``analytic_quadratic_utility``."""
    column, linear, constant = strategy_toeplitz_form(w, m)
    return SymToeplitz(column).to_dense(), linear, constant


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


def _moments(v: np.ndarray) -> np.ndarray:
    """(mean, std_error, ess) of -exp(-V) as ``estimate_utility`` takes them, from V itself."""
    shift = max(float(np.min(v)), 0.0)
    y = -np.exp(shift - v)
    scale = math.exp(-shift)
    stderr = float(np.std(y, ddof=1) / math.sqrt(len(v))) * scale
    return np.array([float(np.mean(y)) * scale, stderr, float(np.sum(np.abs(y)) ** 2 / np.sum(y * y))])


@pytest.mark.parametrize(
    "m, paths",
    [
        (DiscreteMarket(n=100, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3), 500),  # direct product
        (DiscreteMarket(n=300, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3), 200),  # FFT, every V > 0: shifted
        (DiscreteMarket(n=1025, delay=20, mu=0.1 / 1025, sigma=1025**-0.5, sigma_hat=0.8 * 1025**-0.5), 100),
    ],
    ids=lambda v: f"n{v.n}" if isinstance(v, DiscreteMarket) else str(v),
)
def test_estimate_moments_match_those_of_evaluate_paths_wealth(m, paths):
    batch, w = generate(m, paths, seed=3), strategy(m)
    report = estimate_utility(batch, w, m)
    _, v = evaluate_paths(w, m, batch.increments)
    reference = _moments(v)
    got = np.array([report.empirical_mean, report.std_error, report.ess])
    assert np.all(np.abs(got - reference) <= 1e-12 * np.abs(reference))


def test_estimate_above_the_analytic_cap_builds_no_n_by_n_array():
    n = DURBIN_STEP_BUDGET + 2  # past the horizon a full recursion would stay within; this one is certified
    m = DiscreteMarket(n=n, delay=3, mu=0.1, sigma=1.0, sigma_hat=1.3)
    batch, w = generate(m, 100, seed=1), strategy(m)
    tracemalloc.start()
    try:
        report = estimate_utility(batch, w, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.analytic == pytest.approx(value(m), rel=1e-10)
    assert report.analytic_skipped is None
    assert math.isfinite(report.empirical_mean)
    assert peak < n * n * 8 / 4  # one n x n float array is 134 MB; about 16 MB measured


@pytest.mark.parametrize("kind", ["scaled", "merton"])
def test_estimate_skips_the_oracle_past_the_step_budget_and_says_why(monkeypatch, kind):
    monkeypatch.setattr(mc, "DURBIN_STEP_BUDGET", 16)  # no full-size recursion runs
    m = DiscreteMarket(n=64, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)
    batch, w = generate(m, 100, seed=2), strategy(m)
    assert estimate_utility(batch, w, m).analytic == pytest.approx(value(m), rel=1e-10)  # certified by order 3
    if kind == "scaled":  # a kernel with no vanishing tail: Durbin gives up after 16 coefficients
        w = dataclasses.replace(w, kernel=1.5 * w.kernel)
        reason = "computed 16 of 63 reflection coefficients"
    else:  # a linear term other than the Merton ratio: the Toeplitz oracle refuses it at any budget
        w = dataclasses.replace(w, merton=w.merton + 0.1)
        reason = "the Merton ratio mu / sigma^2"
    report = estimate_utility(batch, w, m)
    assert report.analytic is None
    assert reason in report.analytic_skipped
    assert "analytic_skipped" not in report.to_json()
    monkeypatch.setattr(mc, "DURBIN_STEP_BUDGET", 63)  # the full recursion fits again
    if kind == "scaled":
        assert "DURBIN_STEP_BUDGET = 16" in report.analytic_skipped
        assert estimate_utility(batch, w, m).analytic == pytest.approx(
            analytic_quadratic_utility(*strategy_quadratic_form(w, m), m), rel=1e-10
        )
    else:
        assert estimate_utility(batch, w, m).analytic_skipped == report.analytic_skipped


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
    report = estimate_utility(PathBatch(seed=7, increments=x), strategy(m), m)
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
    """(Toeplitz-oracle value or None, dense value or None): None where the form is not integrable."""
    out = []
    for run in (
        lambda: -math.exp(toeplitz_log_neg_utility(*strategy_toeplitz_form(w, m), m)),
        lambda: analytic_quadratic_utility(*strategy_quadratic_form(w, m), m),
    ):
        try:
            out.append(run())
        except IntegrabilityError:
            out.append(None)
    return out


def _assert_refuses_the_linear_term(w, m):
    """The Toeplitz oracle raises DomainError, naming the Merton ratio, before Durbin runs."""
    with mock.patch.object(mc, "reflection_coefficients", side_effect=AssertionError("Durbin ran")):
        with pytest.raises(DomainError, match="Merton ratio"):
            toeplitz_log_neg_utility(*strategy_toeplitz_form(w, m), m)


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
    if merton_shift != 0.0:  # b != 0: only the dense oracle takes it
        _assert_refuses_the_linear_term(w, m)
        return
    fast, dense = _both_oracles(w, m)
    assert fast == pytest.approx(dense, rel=1e-10)
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
            if shift != 0.0:  # refused on either side of the boundary, before Durbin's verdict
                _assert_refuses_the_linear_term(w, m)
                continue
            fast, dense = _both_oracles(w, m)
            assert (fast is None) == (dense is None) == (factor > 1.0)
            if fast is not None:
                assert fast == pytest.approx(dense, rel=1e-10)


def _durbin_on_negative_strides(column):
    """reflection_coefficients as written with the dot on the negative-stride view r[k-1::-1]."""
    r = column[1:] / column[0]
    alphas, y = np.empty(len(r)), np.empty(len(r))
    if len(r) == 0:
        return alphas
    alpha = alphas[0] = y[0] = -r[0]
    beta = 1.0
    for k in range(1, len(r)):
        if not abs(alpha) < 1.0:
            return alphas[:k]
        beta *= 1.0 - alpha * alpha
        alpha = alphas[k] = -(r[k] + np.dot(r[k - 1 :: -1], y[:k])) / beta
        y[:k] += alpha * y[k - 1 :: -1]
        y[k] = alpha
    return alphas


def _certified_order(alphas):
    """Length of ``alphas`` without its trailing exact zeros: the certified prefix, or the whole array."""
    nonzero = np.flatnonzero(alphas)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _hedge_column(n, delay, sigma_hat, scale=1.0):
    """First column of I/sigma^2 + Q for the optimal strategy with its kernel scaled by ``scale``."""
    m = DiscreteMarket(n=n, delay=delay, mu=0.1, sigma=1.0 / math.sqrt(n), sigma_hat=sigma_hat / math.sqrt(n))
    w = _forms(m, scale)
    column, _, _ = strategy_toeplitz_form(w, m)
    column[0] += 1.0 / m.sigma**2
    return column


def _durbin_sum(alphas, n):
    """fsum_k (n - 1 - k) log1p(-alpha_k^2), the part of log |T| that the coefficients give."""
    return math.fsum(np.arange(n - 1, n - 1 - len(alphas), -1) * np.log1p(-alphas * alphas))


def test_reflection_coefficients_keep_the_bits_of_the_negative_stride_dot():
    # the coefficients before a certified tail of zeros keep the full recursion's bits
    not_definite = np.array([1.0, 0.5, 0.9, 0.1, 0.2])  # the recursion raises where the reference stops
    assert _dots_before_the_raise(not_definite) == len(_durbin_on_negative_strides(not_definite)) - 1
    columns = []
    for n, delay, sigma_hat in [(1, 0, 1.3), (2, 1, 0.8), (64, 3, 1.3), (300, 20, 0.7), (2048, 200, 1.4)]:
        columns.append(_hedge_column(n, delay, sigma_hat))
    for column in columns:
        got, want = reflection_coefficients(column), _durbin_on_negative_strides(column)
        assert len(got) == len(want)
        p = _certified_order(got)
        assert got[:p].tobytes() == want[:p].tobytes()


def _count_dots(column):
    """(reflection_coefficients(column), the number of np.dot calls it made: one per Durbin step)."""
    with mock.patch.object(np, "dot", wraps=np.dot) as dot:
        alphas = reflection_coefficients(column)
    return alphas, dot.call_count


def _dots_before_the_raise(column):
    """The number of np.dot calls reflection_coefficients(column) makes before it raises IntegrabilityError."""
    with mock.patch.object(np, "dot", wraps=np.dot) as dot:
        with pytest.raises(IntegrabilityError):
            reflection_coefficients(column)
    return dot.call_count


@pytest.mark.parametrize(
    "n, delay",
    [(n, d) for n in (2, 3, 64, 2048, 8192) for d in sorted({0, 1, n // 2, n - 1})],
)
@pytest.mark.parametrize("sigma_hat", [0.7, 1.0, 1.3])
def test_a_certified_tail_stays_within_its_bound_of_the_full_recursion(n, delay, sigma_hat):
    column = _hedge_column(n, delay, sigma_hat)
    got, want = reflection_coefficients(column), _durbin_on_negative_strides(column)
    assert len(got) == len(want) == n - 1
    p = _certified_order(got)
    assert p <= delay + 1  # A^-1 is delay-banded: A is an order-delay autoregression's covariance
    assert got[:p].tobytes() == want[:p].tobytes()
    assert not np.any(got[p:])
    # what the reference's tail adds to the log-determinant sum is what the zeros drop: at most eta^2
    assert -_durbin_sum(want[p:], n - p) <= DURBIN_TAIL_ETA**2
    assert abs(_durbin_sum(got, n) - _durbin_sum(want, n)) <= 1e-13


def test_an_optimal_strategy_takes_at_most_delay_plus_two_durbin_steps():
    n, delay = 2048, 3
    alphas, steps = _count_dots(_hedge_column(n, delay, 1.3))
    assert len(alphas) == n - 1
    assert steps <= delay + 2  # the full recursion takes n - 2


def _random_spd_columns():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 300))
        column = rng.uniform(-1.0, 1.0, n) / n
        column[0] = 1.0 + np.abs(column[1:]).sum() * rng.uniform(0.2, 1.0)  # diagonally dominant: positive definite
        yield column


@pytest.mark.parametrize(
    "column",
    [
        _hedge_column(n, delay, sigma_hat, scale)
        for scale in (0.97, 1.05, 1.5)
        for n, delay, sigma_hat in [(64, 3, 1.3), (1024, 20, 0.7), (2048, 3, 1.3)]
    ]
    + list(_random_spd_columns()),
    ids=lambda c: f"n{len(c)}",
)
def test_columns_with_no_vanishing_tail_run_the_full_recursion(column):
    want = _durbin_on_negative_strides(column)
    if not np.all(np.abs(want) < 1.0):  # not positive definite: the raise comes where the reference stops
        assert _dots_before_the_raise(column) == len(want) - 1
        return
    got, steps = _count_dots(column)
    assert got.tobytes() == want.tobytes()
    assert steps == len(want) - 1  # every step the reference takes, to n - 2


@pytest.mark.parametrize(
    "column",
    [
        _hedge_column(n, delay, sigma_hat)
        for n, delay in [(1, 0), (2, 1), (64, 3), (2048, 200)]
        for sigma_hat in (0.7, 1.0, 1.3)
    ]
    + [_hedge_column(n, delay, 1.3, scale) for scale in (0.97, 1.05) for n, delay in [(64, 3), (1024, 20)]]
    + list(_random_spd_columns())[:5],
    ids=lambda c: f"n{len(c)}",
)
def test_the_log_det_sum_stops_at_the_last_nonzero_coefficient_with_the_full_sums_bits(column):
    alphas = reflection_coefficients(column)
    full = _durbin_sum(alphas, len(column))  # every term, zeros included
    with mock.patch.object(np, "log1p", wraps=np.log1p) as log1p:
        got = reflection_log_det(alphas)
    assert repr(got) == repr(full)  # the same bits, and 0.0 (not -0.0) for the all-zero column of sigma_hat = 1
    assert len(log1p.call_args.args[0]) == _certified_order(alphas)  # the terms past the last nonzero are skipped


@pytest.mark.parametrize("factor, certified", [(0.99, True), (1.01, False)])
def test_the_certificate_holds_just_below_its_bound_and_not_just_above(factor, certified):
    n, delay = 512, 3
    column = _hedge_column(n, delay, 1.3)
    head = _durbin_on_negative_strides(column)[:delay]  # beta_p and P of the certificate at order p = delay
    beta, growth = float(np.prod(1.0 - head * head)), float(np.prod(1.0 + np.abs(head)))
    # the last lag moved by delta leaves every residual but g_{n-2} at rounding level, so eta = n delta P / beta
    column[-1] += factor * DURBIN_TAIL_ETA * beta / (n * growth) * column[0]
    with mock.patch.object(mc, "_tail_vanishes", wraps=mc._tail_vanishes) as tail_test:
        got, steps = _count_dots(column)
    want = _durbin_on_negative_strides(column)
    assert tail_test.call_args_list[0].args[1].shape == (delay,)  # the first test ran at order delay
    if certified:
        assert _certified_order(got) <= delay and steps == delay
        assert abs(_durbin_sum(got, n) - _durbin_sum(want, n)) <= DURBIN_TAIL_ETA**2
    else:
        assert got.tobytes() == want.tobytes() and steps == n - 2
        assert 1 < tail_test.call_count <= math.log2(n)  # retried at doubled orders only


def _exact_hedge_column(a, delay, n):
    """A's first column (a + 1, b_1 .. b_{n-1}) in exact arithmetic, by the weight recursion."""
    b = []
    for i in range(n - 1):
        b.append(a if i < delay else a / (a * delay + 1) * sum(b[i - delay : i]))
    return [a + 1] + b


def _exact_durbin(column):
    """Durbin's reflection coefficients of the symmetric Toeplitz matrix, in ``Fraction`` arithmetic."""
    r = [c / column[0] for c in column[1:]]
    alphas, y, beta = [], [], Fraction(1)
    for k in range(len(r)):
        alpha = -(r[k] + sum(y[i] * r[k - 1 - i] for i in range(k))) / beta
        alphas.append(alpha)
        y = [y[i] + alpha * y[k - 1 - i] for i in range(k)] + [alpha]
        beta *= 1 - alpha * alpha
    return alphas


@st.composite
def _rational_markets(draw):
    n = draw(st.integers(1, 12))
    delay = draw(st.integers(0, n - 1))
    lowest = Fraction(-1, delay + 1)
    a = lowest + draw(st.fractions(min_value=Fraction(1, 10**6), max_value=20, max_denominator=10**6))
    return a, delay, n


@settings(max_examples=150, deadline=None)
@given(_rational_markets())
def test_reflection_coefficients_vanish_exactly_past_the_delay(market):
    a, delay, n = market
    column = _exact_hedge_column(a, delay, n)
    alphas = _exact_durbin(column)
    assert all(abs(alpha) < 1 for alpha in alphas)  # A is positive definite for a > -1/(D+1)
    assert all(alpha == 0 for alpha in alphas[delay:])
    got, steps = _count_dots(np.array([float(c) for c in column]))
    assert steps <= delay + 1  # certified at order <= delay + 1, or the recursion ran out first
    assert _certified_order(got) <= delay + 1


def test_reflection_coefficients_stop_at_the_first_that_is_not_below_one():
    column = np.array([1.0, 0.5, 0.9, 0.1, 0.2])  # not positive definite
    want = _durbin_on_negative_strides(column)  # stops at the first |alpha_k| >= 1
    assert np.all(np.abs(want[:-1]) < 1.0) and not abs(want[-1]) < 1.0 and len(want) < len(column) - 1
    assert _dots_before_the_raise(column) == len(want) - 1
    assert np.linalg.eigvalsh(SymToeplitz(column).to_dense())[0] < 0.0
    spd = np.array([2.0, 0.5, 0.2, 0.1])
    assert len(reflection_coefficients(spd)) == 3
    log_det = 4 * math.log(2.0) + math.fsum(np.arange(3, 0, -1) * np.log1p(-reflection_coefficients(spd) ** 2))
    assert log_det == pytest.approx(math.log(np.linalg.det(SymToeplitz(spd).to_dense())), rel=1e-14)


def test_a_last_reflection_coefficient_of_one_raises():
    column = np.array([1.0, 0.0, 1.0])  # singular: alpha_0 = 0, and alpha_1 = -1 is the only bad coefficient
    assert np.linalg.eigvalsh(SymToeplitz(column).to_dense())[0] == pytest.approx(0.0, abs=1e-15)
    assert _dots_before_the_raise(column) == 1  # the whole recursion runs, and its last coefficient fails


def test_estimate_runs_the_levinson_oracle_without_an_n_by_n_array():
    n = 2048  # a dense fallback would peak near 170 MB, not more
    m = DiscreteMarket(n=n, delay=20, mu=0.1 / n, sigma=1.0 / math.sqrt(n), sigma_hat=1.3 / math.sqrt(n))
    batch, w = generate(m, 16, seed=1), strategy(m)
    estimate_utility(batch, w, m)  # a first call outside the trace
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
