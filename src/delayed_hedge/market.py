"""Market parameter types and the time-discretization map.

A discrete market is the quintuple (n, D, mu, sigma, sigma_hat): n i.i.d.
Gaussian price increments with mean mu and variance sigma^2, a D-step
information delay, and a static option pricing rule under which the terminal
price is Normal(S0, n * sigma_hat^2).  Its continuous counterpart is a
Bachelier price on [0, 1] with delay H, drift theta, volatility varsigma and
pricing volatility varsigma_hat.  Building either market checks its rules in
``__post_init__`` and raises DomainError at the first that fails, so no
invalid market exists and no caller checks one again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


@dataclass(frozen=True)
class DiscreteMarket:
    """Discrete-time Gaussian market with a trading-information delay."""

    n: int
    delay: int
    mu: float
    sigma: float
    sigma_hat: float

    def __post_init__(self) -> None:
        for name, size in (("n", self.n), ("delay", self.delay)):
            if not isinstance(size, numbers.Integral) or isinstance(size, bool):
                raise DomainError(f"{name} must be an integer, got {size!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.delay < 0:
            raise DomainError(f"delay must be non-negative, got {self.delay}")
        if self.delay >= self.n:
            raise DomainError(f"delay must be < n, got delay={self.delay}, n={self.n}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not self.sigma_hat > 0:
            raise DomainError(f"sigma_hat must be positive, got {self.sigma_hat}")
        _require_finite("mu", self.mu, "sigma^2 / sigma_hat^2", self.sigma, self.sigma_hat)


@dataclass(frozen=True)
class ContinuousMarket:
    """Bachelier market on [0, 1] observed with constant delay H."""

    H: float
    theta: float
    varsigma: float
    varsigma_hat: float

    def __post_init__(self) -> None:
        if not 0.0 < self.H <= 1.0:
            raise DomainError(f"H must lie in (0, 1], got {self.H}")
        if not self.varsigma > 0:
            raise DomainError(f"varsigma must be positive, got {self.varsigma}")
        if not self.varsigma_hat > 0:
            raise DomainError(f"varsigma_hat must be positive, got {self.varsigma_hat}")
        _require_finite("theta", self.theta, "varsigma^2 / varsigma_hat^2", self.varsigma, self.varsigma_hat)


def _require_finite(name: str, drift: float, ratio_name: str, vol: float, pricing_vol: float) -> None:
    """Reject a non-finite ``drift``, and squared volatilities or a variance
    ratio that overflow or underflow: the closed forms divide by both squares."""
    if not math.isfinite(drift):
        raise DomainError(f"{name} must be finite, got {drift}")
    top, bottom = vol * vol, pricing_vol * pricing_vol
    if not (0.0 < top < math.inf and 0.0 < bottom < math.inf and 0.0 < top / bottom < math.inf):
        raise DomainError(f"{ratio_name} must be finite and positive, got ({vol!r} / {pricing_vol!r})^2")


def delay_steps(H: float, n: int) -> int:
    """Smallest integer m with m / n >= H, i.e. ceil(H * n).

    The ceiling is taken on an exact rational reconstruction of H's decimal
    form: float(H) * n can overshoot an exact multiple (0.07 * 100 is
    7.000000000000001) and a naive ceiling would misfire.
    """
    return math.ceil(Fraction(str(H)) * n)


def discretize(c: ContinuousMarket, n: int) -> DiscreteMarket:
    """Sample the continuous market on the n-point grid {1/n, ..., 1}.

    The delay becomes D = min(ceil(H * n), n - 1), the per-step drift theta / n
    and the per-step volatilities varsigma / sqrt(n), varsigma_hat / sqrt(n).
    At D = n - 1 every lag i - j < n lies within the delay, so the holdings
    already use no observed increment: every H > (n - 1) / n gives this same
    no-information market.
    """
    if n < 2:
        raise DomainError(f"discretization needs n >= 2, got {n}")
    root_n = math.sqrt(n)
    return DiscreteMarket(
        n=n,
        delay=min(delay_steps(c.H, n), n - 1),
        mu=c.theta / n,
        sigma=c.varsigma / root_n,
        sigma_hat=c.varsigma_hat / root_n,
    )
