"""Explicit solution of the delayed semistatic hedging problem.

For the market (n, D, mu, sigma, sigma_hat) the scalar a is the largest root
of the quadratic

    D (D+1) z^2 + (2D + 1 - D (D+1) sigma^2 / (n sigma_hat^2)) z
        + 1 - sigma^2 / sigma_hat^2 = 0            (a = sigma^2/sigma_hat^2 - 1 for D = 0),

the weight sequence is b_1 = ... = b_D = a, b_i = a / (a D + 1) * sum of the
previous D weights, and the optimal strategy holds

    gamma_i = mu / sigma^2 + (1 / sigma^2) sum_{j < i} (b_{i-j} - a) X_j

stocks plus the static quadratic option (a / (2 sigma^2)) (S_n - S_0)^2.
The achieved expected utility is u = -exp(-C) with the dual constant

    C = n (mu^2 - a sigma_hat^2) / (2 sigma^2) + (1/2) log |A|

(``c_hat``) and |A| the closed-form Toeplitz determinant.

``solve`` computes a and log |A| once; ``strategy``, ``value`` and
``hedge_matrix`` are views of the ``HedgeSolution`` it returns.
``evaluate_paths`` gets the holdings of a batch of paths as one causal
convolution (``causal_convolve``).  Terminal wealth alone (``wealth``) needs
no holdings: past two sums over each path it is the quadratic form
x.(kernel * x), which ``quadratic_forms`` reads off one forward FFT of the
paths, shared by every form taken of the same batch.  The module needs numpy
alone; the Nelder-Mead optimality oracle is ``mc.brute_force_optimum``.
"""

from __future__ import annotations

import array
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import DomainError, LengthMismatch, NumericalError
from .market import DiscreteMarket
from .toeplitz import SymToeplitz, log_det_closed_form, lower_toeplitz, require_root_domain

# Residual guard for the explicit root; theory guarantees a real root, so a
# discriminant below -CLAMP (relative) means the inputs are inconsistent.
DISCRIMINANT_CLAMP = 1e-12
ROOT_RESIDUAL_TOL = 1e-12

# causal_convolve multiplies by the dense Toeplitz matrix up to this many
# outputs and uses the FFT beyond: below it the FFT's fixed call overhead
# dominates, above it the product's n^2 work per path does.
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
        qc=(m.sigma_hat - m.sigma) * (m.sigma_hat + m.sigma) / m.sigma_hat**2,  # 1 - ratio2, without cancelling
    )


def solve_a(m: DiscreteMarket) -> float:
    """Largest root of the hedging quadratic, via the explicit expression."""
    D = m.delay
    q = quadratic_coeffs(m)
    disc = q.qb * q.qb - 4.0 * q.qa * q.qc
    if disc < 0.0:
        if disc < -DISCRIMINANT_CLAMP * max(1.0, q.qb * q.qb, abs(4.0 * q.qa * q.qc)):
            raise NumericalError(f"negative discriminant {disc} for {m}")
        disc = 0.0
    root = math.sqrt(disc)
    # the largest root (root - qb) / (2 qa), taken in the form that subtracts nothing: for
    # qb > 0 it is -2 qc / (qb + root), which also covers D = 0 (qa = 0) and sigma = sigma_hat
    # (qc = 0; the + 0.0 makes that root 0.0, not -0.0)
    a = -2.0 * q.qc / (q.qb + root) + 0.0 if q.qb > 0.0 else (root - q.qb) / (2.0 * q.qa)
    if a * (D + 1) + 1.0 <= 0.0:
        raise NumericalError(f"root a = {a} violates a > -1/(D+1) for {m}")
    # evaluating the quadratic at the rounded root leaves ~ |q'(a)| |a| eps,
    # so the sanity net scales with the root magnitude
    if abs(q.residual(a)) > ROOT_RESIDUAL_TOL * q.scale * max(1.0, abs(a)):
        raise NumericalError(f"root residual {q.residual(a)} too large for {m}")
    return a


def weights_b(m: DiscreteMarket, a: float, count: int) -> np.ndarray:
    """First ``count`` weights b_1, b_2, ... via the depth-D recursion.

    One loop appends b_i = ratio * window to an ``array.array`` of doubles
    while it reads the outgoing b_{i-D} off the same array through
    ``islice``, and moves the window sum of the last D weights by their
    difference: O(1) per step and 8 bytes per weight.  The items read back
    as Python floats, which give numpy scalars' bits at less cost.

    The loop stops at the recursion's float fixed point.  Suppose the last
    D + 1 weights b_{i-D} .. b_i and the next one, ratio * window, all have
    the bits of one w.  Then w is finite: the step that made b_i added
    b_i - b_{i-D} = w - w to the window, which is NaN for an infinite w, and
    ratio * NaN is not w.  So that step added +0.0, the window is not -0.0,
    and adding +0.0 leaves the bits of any other float alone.  Each later
    step adds w - w = +0.0 again: the window keeps its bits, every later
    weight is ratio * window = w, and so is every outgoing one.  So the
    rest of the output is w, bit for bit what the recursion would write:
    the loop copies the weights so far into the output and fills the rest
    with w.  It tests the certificate where b_i == b_{i-D} and D steps have
    passed since its last test, so the tests cost O(1) per step and the
    loop ends within D steps of the first weight where the certificate
    holds.  The test compares bits, so signed zeros keep theirs.
    """
    if not (isinstance(count, numbers.Integral) and count >= 0):
        raise DomainError(f"weight count must be an integer >= 0, got {count!r}")
    D = m.delay
    if D == 0:
        return np.zeros(count)
    require_root_domain(a, D)
    if count <= D:
        return np.frombuffer(array.array("d", [a]) * count, dtype=float)
    b = array.array("d", [a]) * D  # b_1 .. b_D
    append = b.append
    ratio = a / (a * D + 1.0)
    window = a * D  # sum of b_{i-D} .. b_{i-1}
    due = 0  # the length of b from which the next certificate test may run
    for outgoing in islice(b, count - D):
        bi = ratio * window
        append(bi)
        window += bi - outgoing
        if bi == outgoing and len(b) >= due:
            due = len(b) + D
            run = b[-D - 1 :]
            run.append(ratio * window)  # b_{i-D} .. b_i and the next weight
            if run.tobytes() == (array.array("d", [bi]) * (D + 2)).tobytes():
                out = np.empty(count)
                out[: len(b)] = np.frombuffer(b, dtype=float)
                out[len(b) :] = bi
                return out
    return np.frombuffer(b, dtype=float)


@dataclass(frozen=True)
class HedgeSolution:
    """Root a and log |A| of one market; the rest are views, b built on first use.

    ``value`` is -exp(-c_hat), the one formula for the exponent.
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
        return -math.exp(-self.c_hat)

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


def _lagged_taps(taps: np.ndarray, n: int):
    """(d, taps[d : n - 1]) for the first nonzero lag d of the n - 1 taps that
    paths of length n use, or None when they are all zero.

    Fewer than n - 1 taps raise ``LengthMismatch``.
    """
    if len(taps) < n - 1:
        raise LengthMismatch(f"need n - 1 = {n - 1} taps for paths of length n={n}, got {len(taps)}")
    nonzero = taps[: n - 1].nonzero()[0]
    if nonzero.size == 0:
        return None
    d = int(nonzero[0])
    return d, taps[d : n - 1]


def _fft_length(size: int) -> int:
    """The power of two >= 2 size - 1: a circular product of that length holds
    every lag below ``size`` free of wrap-around."""
    return 1 << (2 * size - 2).bit_length()


def causal_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """y[:, i] = sum_{l=1..i} taps[l-1] x[:, i-l] for every row of ``x``.

    Only taps[d:] from the first nonzero lag d are used, so y[:, :d+1] stay
    exact zeros (the delayed holdings rely on it).  The N = n - 1 - d
    outputs left need x[:, :N] and taps[d:d+N] alone.  Up to
    DIRECT_CONVOLVE_MAX outputs they are one product with the N x N
    lower-triangular Toeplitz matrix (``toeplitz.lower_toeplitz``); beyond,
    one batched real FFT at a power-of-two length >= 2N - 1, which keeps the
    circular product free of wrap-around: O(P n log n) time, O(P n) memory,
    no n x n array.
    Fewer than n - 1 taps raise ``LengthMismatch`` on both paths.
    """
    return _convolve_lagged(x, _lagged_taps(taps, x.shape[1]))


def _convolve_lagged(x: np.ndarray, lag) -> np.ndarray:
    """``causal_convolve`` from the (d, lagged) pair (or None) that ``_lagged_taps`` found."""
    y = np.zeros(x.shape)
    if lag is None:
        return y
    d, lagged = lag
    size = len(lagged)
    head = x[:, :size]
    if size <= DIRECT_CONVOLVE_MAX:
        y[:, d + 1 :] = head @ lower_toeplitz(lagged).T
        return y
    length = _fft_length(size)
    spectrum = np.fft.rfft(head, length)
    spectrum *= np.fft.rfft(lagged, length)
    y[:, d + 1 :] = np.fft.irfft(spectrum, length)[:, :size]
    return y


def quadratic_forms(x: np.ndarray, *taps: np.ndarray) -> np.ndarray:
    """Per-row sum_i x[:, i] (taps * x)[:, i] for each taps array, with the
    causal convolution taps * x of ``causal_convolve``.

    Each form is sum_l taps[l-1] r_l over the lags l = 1 .. n - 1 of the
    row's autocorrelation r_l = sum_i x_i x_{i-l}.  Taps with at most
    DIRECT_CONVOLVE_MAX outputs past their first nonzero lag take the form
    from ``causal_convolve``'s direct product, handed the lag found here, so
    ``_lagged_taps`` runs once per taps array.  The others share one rfft X
    of the rows at a power-of-two L >= 2n - 1, where no lag wraps around, and
    one rfft T of (0, taps) each; by Parseval the form is
    (1/L) sum_k w_k |X_k|^2 Re T_k over the half spectrum, with w = 1 at DC
    and Nyquist and 2 elsewhere (Oppenheim & Schafer, Discrete-Time Signal
    Processing, 8.5).  |X_k|^2 is formed in X's own memory and each form is
    a row sum of it times the weights: O(P n log n) time, no inverse
    transform, and past ``x`` one complex P x (L/2 + 1) array plus a real
    one for each form but the last.  Returns shape (len(taps), paths).
    Fewer than n - 1 taps raise ``LengthMismatch``.
    """
    n = x.shape[1]
    forms = np.zeros((len(taps), x.shape[0]))
    spectral = []
    for i, t in enumerate(taps):
        lag = _lagged_taps(t, n)
        if lag is None:
            continue
        if len(lag[1]) <= DIRECT_CONVOLVE_MAX:
            y = _convolve_lagged(x, lag)
            np.add.reduce(np.multiply(x, y, out=y), axis=1, out=forms[i])
        else:
            spectral.append(i)
    if not spectral:
        return forms
    length = _fft_length(n)
    weights = np.array([np.fft.rfft(np.concatenate([[0.0], taps[i][: n - 1]]), length).real for i in spectral])
    weights[:, 1:-1] *= 2.0
    weights /= length
    squares = np.fft.rfft(x, length).view(float)  # (re, im) pairs of X_k
    squares *= squares
    power = squares[:, ::2]  # |X_k|^2, summed into the real slots in place
    power += squares[:, 1::2]
    for k, (i, row) in enumerate(zip(spectral, weights)):
        # numpy's pairwise row sum; a BLAS product over the spectrum was up to
        # 4x less accurate.  The last form scales |X_k|^2 in place.
        forms[i] = np.multiply(power, row, out=power if k == len(spectral) - 1 else None).sum(axis=1)
    return forms


def as_paths(x, m: DiscreteMarket) -> np.ndarray:
    """``x`` as a float array of shape (paths, n), else ``LengthMismatch``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.n:
        raise LengthMismatch(f"expected paths of length n={m.n}, got shape {x.shape}")
    return x


def evaluate_paths(w: StrategyWeights, m: DiscreteMarket, x: np.ndarray):
    """Holdings and terminal wealth for a batch of increment paths.

    ``x`` has shape (paths, n); returns (gammas with the same shape, V with
    shape (paths,)).  The holdings are merton plus the causal convolution of
    ``w.kernel`` with the past increments (``causal_convolve``: O(paths * n
    log n) for long paths); the first D + 1 holdings are exactly merton.  The
    static leg costs its pricing-measure expectation static_coeff * n *
    sigma_hat^2.  ``wealth`` gives V alone without the holdings.
    """
    x = as_paths(x, m)
    gammas = w.merton + causal_convolve(x, w.kernel)
    total = x.sum(axis=1)
    v = w.static_coeff * total**2 + (gammas * x).sum(axis=1) - w.static_coeff * m.n * m.sigma_hat**2
    return gammas, v


def wealth(w: StrategyWeights, m: DiscreteMarket, x: np.ndarray, form: np.ndarray | None = None) -> np.ndarray:
    """Terminal wealth V of ``evaluate_paths`` without the holdings.

    V = s (sum x)^2 + merton sum x + x.(kernel * x) - s n sigma_hat^2 with
    s = static_coeff, the form read off ``quadratic_forms`` unless the
    caller passes it as ``form``.  Equal to ``evaluate_paths``' V up to
    rounding, not bit for bit.
    """
    x = as_paths(x, m)
    if form is None:
        (form,) = quadratic_forms(x, w.kernel)
    total = x.sum(axis=1)
    return w.static_coeff * total**2 + w.merton * total + form - w.static_coeff * m.n * m.sigma_hat**2
