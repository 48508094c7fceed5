import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import (
    ContinuousMarket,
    DiscreteMarket,
    DomainError,
    delay_steps,
    discretize,
    mc,
    solve,
    value,
)
from delayed_hedge.kernel import limit_static_coeff, limit_value


def test_markets_hold_only_model_parameters():
    assert [f.name for f in dataclasses.fields(DiscreteMarket)] == ["n", "delay", "mu", "sigma", "sigma_hat"]
    assert [f.name for f in dataclasses.fields(ContinuousMarket)] == ["H", "theta", "varsigma", "varsigma_hat"]


def test_validate_accepts_valid_market():
    m = DiscreteMarket(n=4, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0)
    assert dataclasses.astuple(m) == (4, 1, 0.0, 1.0, 1.0)
    # numpy integers are integers
    assert DiscreteMarket(n=np.int64(4), delay=np.int32(1), mu=0.0, sigma=1.0, sigma_hat=1.0) == m


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(n=4, delay=4, mu=0.0, sigma=1.0, sigma_hat=1.0), "delay must be < n"),
        (dict(n=4, delay=1, mu=0.0, sigma=1.0, sigma_hat=0.0), "sigma_hat must be positive"),
        (dict(n=4, delay=1, mu=0.0, sigma=0.0, sigma_hat=1.0), "sigma must be positive"),
        (dict(n=0, delay=0, mu=0.0, sigma=1.0, sigma_hat=1.0), "n must be >= 1"),
        (dict(n=4, delay=-1, mu=0.0, sigma=1.0, sigma_hat=1.0), "delay must be non-negative"),
        (dict(n=math.nan, delay=0, mu=0.0, sigma=1.0, sigma_hat=1.0), "n must be an integer, got nan"),
        (dict(n=2.5, delay=0, mu=0.0, sigma=1.0, sigma_hat=1.0), "n must be an integer, got 2.5"),
        (dict(n=4.0, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0), "n must be an integer, got 4.0"),
        (dict(n=True, delay=0, mu=0.0, sigma=1.0, sigma_hat=1.0), "n must be an integer, got True"),
        (dict(n=4, delay=math.nan, mu=0.0, sigma=1.0, sigma_hat=1.0), "delay must be an integer, got nan"),
        (dict(n=4, delay=1.5, mu=0.0, sigma=1.0, sigma_hat=1.0), "delay must be an integer, got 1.5"),
        (dict(n=4, delay=False, mu=0.0, sigma=1.0, sigma_hat=1.0), "delay must be an integer, got False"),
    ],
)
def test_validate_rejects(kwargs, fragment):
    with pytest.raises(DomainError, match=fragment):
        DiscreteMarket(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu=math.nan),
        dict(mu=math.inf),
        dict(sigma=math.inf),
        dict(sigma=1e200, sigma_hat=1e200),  # squares overflow
        dict(sigma_hat=1e-200),  # sigma_hat^2 underflows to zero
        dict(sigma=1e-160, sigma_hat=1e160),  # the variance ratio underflows
    ],
)
def test_validate_rejects_non_finite(kwargs):
    fields = dict(n=4, delay=1, mu=0.0, sigma=1.0, sigma_hat=1.0) | kwargs
    with pytest.raises(DomainError, match="finite"):
        DiscreteMarket(**fields)


@pytest.mark.parametrize(
    "kwargs",
    [dict(theta=math.nan), dict(theta=-math.inf), dict(varsigma=1e-200), dict(varsigma_hat=math.inf)],
)
def test_validate_continuous_rejects_non_finite(kwargs):
    fields = dict(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0) | kwargs
    with pytest.raises(DomainError, match="finite"):
        ContinuousMarket(**fields)


def test_validate_continuous():
    ContinuousMarket(H=1.0, theta=0.0, varsigma=1.0, varsigma_hat=2.0)
    with pytest.raises(DomainError):
        ContinuousMarket(H=0.0, theta=0.0, varsigma=1.0, varsigma_hat=1.0)
    with pytest.raises(DomainError):
        ContinuousMarket(H=1.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        # the first rule that fails names the error, in the order: n and delay integers, n, delay, sigma,
        # sigma_hat, then finiteness
        (dict(n=math.nan, delay=2.5, sigma=0.0), "n must be an integer, got nan"),
        (dict(delay=math.nan, n=0), "delay must be an integer, got nan"),
        (dict(n=0, delay=-1, sigma=0.0), "n must be >= 1, got 0"),
        (dict(delay=-1, sigma=0.0), "delay must be non-negative, got -1"),
        (dict(delay=9, sigma=0.0), "delay must be < n, got delay=9, n=4"),
        (dict(sigma=math.nan, sigma_hat=0.0), "sigma must be positive, got nan"),
        (dict(sigma_hat=-1.0, mu=math.nan), "sigma_hat must be positive, got -1.0"),
        (dict(mu=math.nan, sigma=1e200), "mu must be finite, got nan"),
        (dict(sigma=1e200), "sigma^2 / sigma_hat^2 must be finite and positive, got (1e+200 / 1.3)^2"),
    ],
)
def test_discrete_market_raises_the_first_broken_rule(kwargs, message):
    fields = dict(n=4, delay=1, mu=0.1, sigma=1.0, sigma_hat=1.3) | kwargs
    with pytest.raises(DomainError) as info:
        DiscreteMarket(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(H=math.nan, varsigma=0.0), "H must lie in (0, 1], got nan"),
        (dict(varsigma=-1.0, varsigma_hat=0.0), "varsigma must be positive, got -1.0"),
        (dict(varsigma_hat=0.0, theta=math.inf), "varsigma_hat must be positive, got 0.0"),
        (dict(theta=math.inf, varsigma=1e-200), "theta must be finite, got inf"),
        (dict(varsigma_hat=1e-200), "varsigma^2 / varsigma_hat^2 must be finite and positive, got (1.0 / 1e-200)^2"),
    ],
)
def test_continuous_market_raises_the_first_broken_rule(kwargs, message):
    fields = dict(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0) | kwargs
    with pytest.raises(DomainError) as info:
        ContinuousMarket(**fields)
    assert str(info.value) == message


def test_zero_volatility_market_is_refused_when_built():
    # estimate_utility and the closed forms divide by sigma^2: the market itself must refuse sigma = 0
    with pytest.raises(DomainError, match="sigma must be positive"):
        DiscreteMarket(n=4, delay=1, mu=0.1, sigma=0.0, sigma_hat=1.3)
    m = DiscreteMarket(n=4, delay=1, mu=0.1, sigma=1.0, sigma_hat=1.3)
    with pytest.raises(DomainError, match="sigma must be positive"):
        dataclasses.replace(m, sigma=0.0)


SPECIAL_FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-200, 1e200]


def _field(ordinary):
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), ordinary)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([0, -1, 1, 2, 3, 8, 33, math.nan, 2.5, 8.0, True]),
    delay=st.sampled_from([0, -1, 1, 2, 7, 40, math.nan, 1.5, 2.0, False]),
    mu=_field(st.floats(-2.0, 2.0)),
    sigma=_field(st.floats(0.01, 10.0)),
    sigma_hat=_field(st.floats(0.01, 10.0)),
)
def test_a_discrete_market_is_refused_when_built_or_never(n, delay, mu, sigma, sigma_hat):
    try:
        m = DiscreteMarket(n=n, delay=delay, mu=mu, sigma=sigma, sigma_hat=sigma_hat)
    except DomainError:
        return
    # a drift of 1e200 may overflow a float (the CLI's "floating-point error"), which is no market rule
    with np.errstate(over="ignore", invalid="ignore"), contextlib.suppress(ArithmeticError):
        solution = solve(m)
        mc.estimate_utility(mc.generate(m, 1, 0), solution.strategy, m)


@settings(max_examples=300, deadline=None)
@given(
    H=_field(st.floats(0.01, 1.0)),
    theta=_field(st.floats(-2.0, 2.0)),
    varsigma=_field(st.floats(0.01, 10.0)),
    varsigma_hat=_field(st.floats(0.01, 10.0)),
)
def test_a_continuous_market_is_refused_when_built_or_never(H, theta, varsigma, varsigma_hat):
    try:
        c = ContinuousMarket(H=H, theta=theta, varsigma=varsigma, varsigma_hat=varsigma_hat)
    except DomainError:
        return
    with contextlib.suppress(ArithmeticError):
        limit_value(c)
        limit_static_coeff(c)
        solve(discretize(c, 2))


def test_discretize_exact_multiple():
    c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0)
    m = discretize(c, 10)
    assert m.delay == 2
    assert m.n == 10
    assert m.mu == 0.0
    assert m.sigma == pytest.approx(1.0 / math.sqrt(10), abs=0)


def test_discretize_rounds_up():
    c = ContinuousMarket(H=0.21, theta=0.0, varsigma=1.0, varsigma_hat=1.0)
    assert discretize(c, 10).delay == 3


def test_discretize_clamps_the_delay_below_n():
    # D = n - 1 is already the no-information market, so it is also the limit's at H = 1
    for theta in (0.0, 0.2):
        for ratio in (0.5, 2.0):
            c = ContinuousMarket(H=1.0, theta=theta, varsigma=1.0, varsigma_hat=math.sqrt(ratio))
            for n in (2, 10, 1000, 10**5):
                m = discretize(c, n)
                assert m.delay == n - 1
                assert abs(value(m) - limit_value(c)) <= 1e-14
    # H = 0.995 exceeds (n - 1) / n only for n < 200
    c = ContinuousMarket(H=0.995, theta=0.0, varsigma=1.0, varsigma_hat=1.0)
    for n, D in ((2, 1), (10, 9), (199, 198), (1000, 995), (10**5, 99500)):
        assert discretize(c, n).delay == D


def test_delay_steps_no_float_ceiling_misfire():
    # 0.07 * 100 = 7.000000000000001 in floats; the rational path must give 7.
    assert delay_steps(0.07, 100) == 7
    assert delay_steps(0.2, 10) == 2
    assert delay_steps(1 / 3, 3) == 1


@given(
    h=st.floats(min_value=0.01, max_value=0.9),
    n=st.integers(min_value=4, max_value=5000),
)
def test_delay_fraction_converges(h, n):
    d = discretize(ContinuousMarket(H=h, theta=0.0, varsigma=1.0, varsigma_hat=1.0), n).delay
    assert d == min(delay_steps(h, n), n - 1)
    assert abs(d / n - h) <= 1.0 / n + 1e-12


@given(n=st.integers(min_value=5, max_value=2000))
def test_scale_round_trip(n):
    c = ContinuousMarket(H=0.2, theta=0.3, varsigma=1.7, varsigma_hat=0.9)
    m = discretize(c, n)
    assert n * m.sigma**2 == pytest.approx(c.varsigma**2, rel=1e-14)
    assert n * m.sigma_hat**2 == pytest.approx(c.varsigma_hat**2, rel=1e-14)
    assert n * m.mu == pytest.approx(c.theta, rel=1e-14)
