"""Explicit solution of the delayed semistatic hedging problem.

For the market (n, D, mu, sigma, sigma_hat) the scalar a is the largest root
of the quadratic

    D (D+1) z^2 + (2D + 1 - D (D+1) sigma^2 / (n sigma_hat^2)) z
        + 1 - sigma^2 / sigma_hat^2 = 0            (a = sigma^2/sigma_hat^2 - 1 for D = 0),

the weight sequence is b_1 = ... = b_D = a, b_i = a / (a D + 1) * sum of the
previous D weights, and the optimal strategy holds

    gamma_i = mu / sigma^2 + (1 / sigma^2) sum_{j < i} (b_{i-j} - a) X_j

stocks plus the static quadratic option (a / (2 sigma^2)) (S_n - S_0)^2.
The achieved expected utility is

    u = -exp(n (a sigma_hat^2 - mu^2) / (2 sigma^2)) * |A|^(-1/2)

with |A| the closed-form Toeplitz determinant.

``solve`` computes a and log |A| once; ``strategy``, ``value`` and
``hedge_matrix`` are views of the ``HedgeSolution`` it returns.
``evaluate_paths`` sums the holdings of a batch of paths as one causal
convolution (``causal_convolve``).  The module needs numpy alone; the
Nelder-Mead optimality oracle is ``mc.brute_force_optimum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LengthMismatch, NumericalError
from .market import DiscreteMarket, validate_discrete
from .toeplitz import SymToeplitz, log_det_closed_form, require_root_domain

# Residual guard for the explicit root; theory guarantees a real root, so a
# discriminant below -CLAMP (relative) means the inputs are inconsistent.
DISCRIMINANT_CLAMP = 1e-12
ROOT_RESIDUAL_TOL = 1e-12

# causal_convolve multiplies by the dense Toeplitz matrix up to this many
# outputs and uses the FFT beyond.  Each FFT carries ~10 us of call overhead;
# on one core the direct product took 0.1-0.8x the FFT's time up to 128
# outputs for 16, 100 and 1000 paths, and 1.05-3.4x from 192 to 512 outputs
# for 16 paths (more paths move the break-even out, but the product's work
# grows as n^2 per path).
DIRECT_CONVOLVE_MAX = 128


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Coefficients (qa, qb, qc) of the quadratic equation solved by a."""

    qa: float
    qb: float
    qc: float

    def residual(self, z: float) -> float:
        return self.qa * z * z + self.qb * z + self.qc

    @property
    def scale(self) -> float:
        return max(abs(self.qa), abs(self.qb), abs(self.qc))


@dataclass(frozen=True, eq=False)
class StrategyWeights:
    """Convolution form of the optimal strategy.

    gamma_i = merton + sum_{j=1..i-1} kernel[i-j] x_j with kernel[i] = (b_i - a) / sigma^2
    (1-based lags; kernel[1..D] are exact zeros, which is what makes the
    strategy measurable for the delayed filtration), plus the static payoff
    static_coeff * (S_n - S_0)^2.  ``solution`` is the ``HedgeSolution`` the
    weights were read from (None for hand-built weights).
    """

    merton: float
    kernel: np.ndarray
    static_coeff: float
    solution: HedgeSolution | None = field(default=None, repr=False)


def quadratic_coeffs(m: DiscreteMarket) -> QuadraticCoeffs:
    D = m.delay
    ratio2 = m.sigma**2 / m.sigma_hat**2
    return QuadraticCoeffs(
        qa=float(D * (D + 1)),
        qb=2 * D + 1 - D * (D + 1) * ratio2 / m.n,
        qc=1.0 - ratio2,
    )


def solve_a(m: DiscreteMarket) -> float:
    """Largest root of the hedging quadratic, via the explicit expression."""
    validate_discrete(m)
    D = m.delay
    if m.sigma == m.sigma_hat:
        return 0.0  # consistent pricing; the formula only recovers this up to rounding
    if D == 0:
        return m.sigma**2 / m.sigma_hat**2 - 1.0
    q = quadratic_coeffs(m)
    disc = q.qb * q.qb - 4.0 * q.qa * q.qc
    if disc < 0.0:
        if disc < -DISCRIMINANT_CLAMP * max(1.0, q.qb * q.qb, abs(4.0 * q.qa * q.qc)):
            raise NumericalError(f"negative discriminant {disc} for {m}")
        disc = 0.0
    a = m.sigma**2 / (2 * m.n * m.sigma_hat**2) + (math.sqrt(disc) - 2 * D - 1) / (2 * q.qa)
    if a * (D + 1) + 1.0 <= 0.0:
        raise NumericalError(f"root a = {a} violates a > -1/(D+1) for {m}")
    # evaluating the quadratic at the rounded root leaves ~ |q'(a)| |a| eps,
    # so the sanity net scales with the root magnitude
    if abs(q.residual(a)) > ROOT_RESIDUAL_TOL * q.scale * max(1.0, abs(a)):
        raise NumericalError(f"root residual {q.residual(a)} too large for {m}")
    return a


def weights_b(m: DiscreteMarket, a: float, count: int) -> np.ndarray:
    """First ``count`` weights b_1, b_2, ... via the depth-D recursion.

    The window sum of the last D weights is updated in O(1) per step.
    """
    D = m.delay
    if D == 0:
        return np.zeros(count)
    require_root_domain(a, D)
    b = np.empty(count)
    b[: min(D, count)] = a
    if count <= D:
        return b
    ratio = a / (a * D + 1.0)
    window = a * D  # sum of b_{i-D} .. b_{i-1}
    for i in range(D, count):
        b[i] = ratio * window
        window += b[i] - b[i - D]
    return b


@dataclass(frozen=True)
class HedgeSolution:
    """Root a and log |A| of one market; the rest are views, b built on first use.

    ``value`` and ``c_hat`` are written out separately so comparing them stays a check.
    """

    market: DiscreteMarket
    a: float
    log_det: float

    @property
    def static_coeff(self) -> float:
        return self.a / (2.0 * self.market.sigma**2)

    @property
    def merton(self) -> float:
        return self.market.mu / self.market.sigma**2

    @property
    def value(self) -> float:
        m = self.market
        exponent = m.n * (self.a * m.sigma_hat**2 - m.mu**2) / (2.0 * m.sigma**2)
        return -math.exp(exponent - 0.5 * self.log_det)

    @property
    def c_hat(self) -> float:
        m = self.market
        return m.n * (m.mu**2 - self.a * m.sigma_hat**2) / (2.0 * m.sigma**2) + 0.5 * self.log_det

    @cached_property
    def b(self) -> np.ndarray:  # b_1 .. b_{n-1}
        return weights_b(self.market, self.a, self.market.n - 1)

    @property
    def strategy(self) -> StrategyWeights:
        kernel = (self.b - self.a) / self.market.sigma**2
        return StrategyWeights(merton=self.merton, kernel=kernel, static_coeff=self.static_coeff, solution=self)

    @property
    def matrix(self) -> SymToeplitz:
        return SymToeplitz(np.concatenate([[self.a + 1.0], self.b]))


def solve(m: DiscreteMarket) -> HedgeSolution:
    """The explicit solution for the market; every other entry point reads it."""
    a = solve_a(m)
    return HedgeSolution(market=m, a=a, log_det=log_det_closed_form(a, m.delay, m.n))


def strategy(m: DiscreteMarket) -> StrategyWeights:
    """Optimal strategy in convolution form."""
    return solve(m).strategy


def value(m: DiscreteMarket) -> float:
    """Optimal expected exponential utility (strictly negative)."""
    return solve(m).value


def hedge_matrix(m: DiscreteMarket) -> SymToeplitz:
    """The Toeplitz matrix A whose inverse drives the dual measure."""
    return solve(m).matrix


def causal_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """y[:, i] = sum_{l=1..i} taps[l-1] x[:, i-l] for every row of ``x``.

    Only taps[d:] from the first nonzero lag d are used, so y[:, :d+1] stay
    exact zeros (the delayed holdings rely on it).  The N = n - 1 - d
    outputs left need x[:, :N] and taps[d:d+N] alone.  Up to
    DIRECT_CONVOLVE_MAX outputs they are one product with the N x N
    lower-triangular Toeplitz matrix; beyond, one batched real FFT at a
    power-of-two length >= 2N - 1, which keeps the circular product free
    of wrap-around: O(P n log n) time, O(P n) memory, no n x n array.
    """
    n = x.shape[1]
    y = np.zeros_like(x)
    nonzero = np.flatnonzero(taps[: n - 1])
    if nonzero.size == 0:
        return y
    d = int(nonzero[0])
    size = n - 1 - d
    head, lagged = x[:, :size], taps[d : d + size]
    if size <= DIRECT_CONVOLVE_MAX:
        # lower[k, j] = lagged[k - j] for j <= k, else 0
        padded = np.concatenate([np.zeros(size - 1), lagged])
        lower = padded[size - 1 + np.subtract.outer(np.arange(size), np.arange(size))]
        y[:, d + 1 :] = head @ lower.T
        return y
    length = 1 << (2 * size - 2).bit_length()
    spectrum = np.fft.rfft(head, length)
    spectrum *= np.fft.rfft(lagged, length)
    y[:, d + 1 :] = np.fft.irfft(spectrum, length)[:, :size]
    return y


def evaluate_paths(w: StrategyWeights, m: DiscreteMarket, x: np.ndarray):
    """Holdings and terminal wealth for a batch of increment paths.

    ``x`` has shape (paths, n); returns (gammas with the same shape, V with
    shape (paths,)).  The holdings are merton plus the causal convolution of
    ``w.kernel`` with the past increments (``causal_convolve``: O(paths * n
    log n) for long paths); the first D + 1 holdings are exactly merton.  The
    static leg costs its pricing-measure expectation static_coeff * n *
    sigma_hat^2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.n:
        raise LengthMismatch(f"expected paths of length n={m.n}, got shape {x.shape}")
    gammas = w.merton + causal_convolve(x, w.kernel)
    total = x.sum(axis=1)
    v = w.static_coeff * total**2 + (gammas * x).sum(axis=1) - w.static_coeff * m.n * m.sigma_hat**2
    return gammas, v
