"""Dual martingale measure and the pathwise verification identity.

Under the dual measure the increments are centered Gaussian with covariance
sigma^2 A^-1, which is D-banded (increments are independent of the lagged
past) and puts the market's pricing law on the terminal price.  The constant

    C = n (mu^2 - a sigma_hat^2) / (2 sigma^2) + (1/2) log |A|

closes the identity V(x) + log(dQ/dP)(x) = C for every path x, and equals
both the relative entropy of the dual measure and -log(-value).  C is the
``c_hat`` view of ``solver.solve``; every function here reads one solution.

The measure is stored in one form only, the (D+1) x n lower band of its
covariance (``toeplitz.inverse_band``), so building it, its entropy (banded
Cholesky, O(n D^2)), its marginal and its martingale check cost O(n D)
memory: no n x n array is built.  ``toeplitz.band_to_dense`` is the dense
oracle view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .market import DiscreteMarket
from .solver import HedgeSolution, causal_convolve, evaluate_paths, solve, strategy
from .toeplitz import inverse_band

# Seeded probe vectors of the randomized check that the stored band inverts A.
PROBE_COUNT = 3
PROBE_SEED = 20231


@dataclass(frozen=True, eq=False)
class DualMeasure:
    """Centered Gaussian law of the increments under the dual measure.

    ``band[d, j]`` is the covariance of increments j + d and j (0-based), zero
    past the end of each diagonal; ``toeplitz.band_to_dense`` gives the dense
    matrix.  ``solution`` is the ``HedgeSolution`` the measure was built from,
    and C is its ``c_hat``.
    """

    band: np.ndarray
    solution: HedgeSolution

    @property
    def c_hat(self) -> float:
        return self.solution.c_hat


def build_dual(m: DiscreteMarket) -> DualMeasure:
    """Construct the dual measure for the market's optimal strategy."""
    sol = solve(m)
    c_hat, u = sol.c_hat, sol.value
    if abs(-math.exp(-c_hat) - u) > 1e-12 * abs(u):
        raise NumericalError(f"dual constant {c_hat} inconsistent with value {u}")
    return DualMeasure(band=m.sigma**2 * inverse_band(sol.a, m.delay, m.n), solution=sol)


def check_delayed_martingale(dm: DualMeasure, delay: int, tol: float) -> bool:
    """Structural delayed-martingale check for a Gaussian measure.

    A centered Gaussian increment law is a martingale for the delayed
    filtration iff its covariance is D-banded.  Two tests:

    * every stored diagonal beyond ``delay`` stays below tol * max |entry|;
    * the band must invert the solution's A: for seeded probe
      vectors z, |A (B z) - z| <= tol |z| with B = band / sigma^2 applied by
      the banded BLAS product (dsbmv), and A = (a + 1) I + T(b) by
      ``causal_convolve`` on y and on reversed y, so neither matrix is built
      (a randomized check, Freivalds 1977).

    The first test alone is vacuous for a band stored with ``delay`` + 1 rows;
    the second is what catches a wrong band.
    """
    band = dm.band
    if len(band) > delay + 1 and np.any(np.abs(band[delay + 1 :]) > tol * np.max(np.abs(band))):
        return False
    sol = dm.solution
    from scipy.linalg.blas import dsbmv

    z = np.random.default_rng(PROBE_SEED).standard_normal((PROBE_COUNT, band.shape[1]))
    stored = np.asfortranarray(band)
    y = np.array([dsbmv(len(band) - 1, 1.0 / sol.market.sigma**2, stored, row, lower=1) for row in z])
    lagged = causal_convolve(np.concatenate([y, y[:, ::-1]]), sol.b)
    residual = (sol.a + 1.0) * y + lagged[: len(z)] + lagged[len(z) :, ::-1] - z
    return bool(((residual * residual).sum(axis=1) <= tol**2 * (z * z).sum(axis=1)).all())


def check_marginal(dm: DualMeasure, m: DiscreteMarket, tol: float) -> bool:
    """True iff Var(S_n - S_0) under the dual measure equals n sigma_hat^2.

    The variance of the sum is the diagonal sum plus twice the off-diagonal sums.
    """
    total = 2.0 * float(dm.band.sum()) - float(dm.band[0].sum())
    target = m.n * m.sigma_hat**2
    return abs(total - target) <= tol * abs(target)


def verification_residual(m: DiscreteMarket, x: np.ndarray) -> np.ndarray:
    """V(x) + log(dQ/dP)(x) - C, which vanishes identically for the optimum.

    ``x`` is a batch of paths of shape (paths, n); one residual per path is
    returned.  The dual log-density uses the closed-form determinant; tests
    cross-check it against a factorization.
    The identity is checked for ``strategy(m)``, and the dual side is read
    from the solution those weights came from: its quadratic form is
    x'Ax = (a + 1)|x|^2 + 2 x.(b * x) with the causal convolution b * x of
    ``causal_convolve``, so no n x n matrix is built and each path costs
    O(n log n).  The weights' own kernel is evaluated, never the solution's,
    so a wrong strategy shows up as a nonzero residual.
    """
    x = np.asarray(x, dtype=float)
    w = strategy(m)
    sol = w.solution
    _, v = evaluate_paths(w, m, x)

    lagged = np.sum(x * causal_convolve(x, sol.b), axis=1)
    quad_dual = ((sol.a + 1.0) * np.sum(x * x, axis=1) + 2.0 * lagged) / m.sigma**2
    quad_market = np.sum((x - m.mu) ** 2, axis=1) / m.sigma**2
    log_ratio = 0.5 * (sol.log_det - quad_dual + quad_market)
    return v + log_ratio - sol.c_hat


def relative_entropy(dm: DualMeasure, m: DiscreteMarket) -> float:
    """KL divergence of the dual Gaussian from the market Gaussian.

    Closed Gaussian form (1/2)(trace(A^-1) - n + log |A| + n mu^2 / sigma^2),
    computed from the stored band itself: the trace comes off the main
    diagonal and log |A| from a banded Cholesky factorization (LAPACK pbtrf,
    O(n D^2)), so agreement with c_hat genuinely tests the closed-form
    determinant.
    """
    from scipy.linalg import LinAlgError, cholesky_banded

    band = dm.band
    n = band.shape[1]
    try:
        chol = cholesky_banded(band, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError("dual covariance is not positive definite") from exc
    trace_inv_a = float(np.sum(band[0])) / m.sigma**2
    log_det_a = n * math.log(m.sigma**2) - 2.0 * float(np.sum(np.log(chol[0])))
    return 0.5 * (trace_inv_a - n + log_det_a + n * m.mu**2 / m.sigma**2)
