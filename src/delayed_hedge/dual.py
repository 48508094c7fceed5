"""Dual martingale measure and the pathwise verification identity.

Under the dual measure the increments are centered Gaussian with covariance
sigma^2 A^-1, which is D-banded (increments are independent of the lagged
past) and puts the market's pricing law on the terminal price.  The constant

    C = n (mu^2 - a sigma_hat^2) / (2 sigma^2) + (1/2) log |A|

closes the identity V(x) + log(dQ/dP)(x) = C for every path x, and equals
the relative entropy of the dual measure.  C is the ``c_hat`` view of
``solver.solve``, whose ``value`` is -exp(-C); every function here reads one
solution.

The measure is stored as its taps: the first column v of A^-1, whose D + 1
leading entries are all that is nonzero and fix A^-1 by the Gohberg-Semencul
formula.  Every number the checks read off the covariance is a short sum over
the taps: the marginal and the trace are O(D) sums, the entropy reads
log |A^-1| off the taps' reflection coefficients in O(D^2) time
(``toeplitz.taps_log_det``), and the martingale check tests the equation
A v = e_0 that the taps solve, by one convolution with A's first row.  So
building the measure and its marginal take O(D) time, its entropy O(D^2),
each in O(D) memory whatever n, and the check O(n D); no D x D or n x n
array is made and no ``np.linalg`` routine is called.  No path here imports
scipy.  The dense oracles read the covariance's band as
sigma^2 ``toeplitz.inverse_band(v, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthMismatch, NumericalError
from .market import DiscreteMarket
from .solver import HedgeSolution, as_paths, quadratic_forms, solve, strategy, wealth
from .toeplitz import taps_log_det, v_vector


@dataclass(frozen=True, eq=False)
class DualMeasure:
    """Centered Gaussian law of the increments under the dual measure.

    The covariance is sigma^2 K with K the Gohberg-Semencul sum of the taps
    ``v`` (D = len(v) - 1, ``toeplitz.inverse_band``).  K is positive
    definite iff v_0 > 0 and every reflection coefficient of v / v_0 lies
    inside (-1, 1) (``toeplitz.taps_log_det``).  For the measure
    ``build_dual`` makes, K = A^-1 and v is its first column.
    ``solution`` is the ``HedgeSolution`` the measure was built from, and C
    is its ``c_hat``.
    """

    v: np.ndarray
    solution: HedgeSolution

    def __post_init__(self):
        if not 0 <= len(self.v) - 1 < self.solution.market.n:
            raise LengthMismatch(f"{len(self.v)} taps do not fit n = {self.solution.market.n}")

    @property
    def c_hat(self) -> float:
        return self.solution.c_hat


def build_dual(m: DiscreteMarket) -> DualMeasure:
    """Construct the dual measure for the market's optimal strategy."""
    sol = solve(m)
    return DualMeasure(v=v_vector(sol.a, m.delay), solution=sol)


def _require_own_market(dm: DualMeasure, m: DiscreteMarket) -> None:
    """Raise DomainError unless ``m`` is the market the measure was built for."""
    if m != dm.solution.market:
        raise DomainError(f"market {m} differs from the dual measure's {dm.solution.market}")


def check_delayed_martingale(dm: DualMeasure, delay: int, tol: float) -> bool:
    """Structural delayed-martingale check for a Gaussian measure.

    A centered Gaussian increment law is a martingale for the delayed
    filtration iff its covariance is D-banded.  Two tests:

    * every stored tap beyond ``delay`` stays below tol * max |tap|;
    * the taps must solve the equation that defines them, A v = e_0 with A
      the solution's matrix: |A v - e_0| <= tol, where (A v)_i is the sum
      over k of A_ik v_k = r_|i-k| v_k, one O(n D) convolution of the taps
      with A's first row r mirrored about r_0; no n x n array is built.

    The second test is sufficient: the stored covariance over sigma^2, K, is
    the Gohberg-Semencul sum of the taps, whose first column K e_0 is v, and
    for a non-singular Toeplitz A that sum is A^-1 iff A v = e_0 (Gohberg and
    Semencul 1972).  The first test alone is vacuous for a measure stored with
    ``delay`` + 1 taps; the second is what catches a wrong measure.
    """
    v = dm.v
    width = len(v) - 1
    if width > delay and np.any(np.abs(v[delay + 1 :]) > tol * np.max(np.abs(v))):
        return False
    r = dm.solution.matrix.first_row
    residual = np.convolve(np.concatenate([r[width:0:-1], r]), v, "valid")
    residual[0] -= 1.0
    return bool(residual @ residual <= tol**2)


def check_marginal(dm: DualMeasure, m: DiscreteMarket, tol: float) -> bool:
    """True iff Var(S_n - S_0) under the dual measure equals n sigma_hat^2.

    The variance of the sum is sigma^2 1'K1, and summing the Gohberg-Semencul
    sum's entries gives 1'K1 = (sum_i v_i) (sum_i (n - 2i) v_i) / v_0: O(D).
    False for a leading tap v_0 <= 0, which no variance has and the sum
    divides by.  Raises DomainError unless ``m`` is the measure's own market.
    """
    _require_own_market(dm, m)
    v = dm.v
    if not v[0] > 0.0:
        return False
    total = m.sigma**2 * float(v.sum()) * float((m.n - 2.0 * np.arange(len(v))) @ v) / v[0]
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
    ``causal_convolve``.  One ``quadratic_forms`` call gives x.(b * x) and
    the x.(kernel * x) of V (``solver.wealth``) from one forward FFT of the
    paths, so no n x n matrix is built and each path costs O(n log n).  The
    weights' own kernel is evaluated, never the solution's, so a wrong
    strategy shows up as a nonzero residual.
    """
    x = as_paths(x, m)
    w = strategy(m)
    sol = w.solution
    own, lagged = quadratic_forms(x, w.kernel, sol.b)
    v = wealth(w, m, x, form=own)
    squares = np.square(x)  # the one P x n scratch array: x^2, then (x - mu)^2
    quad_dual = ((sol.a + 1.0) * np.add.reduce(squares, axis=1) + 2.0 * lagged) / m.sigma**2
    np.square(np.subtract(x, m.mu, out=squares), out=squares)
    quad_market = np.add.reduce(squares, axis=1) / m.sigma**2
    log_ratio = 0.5 * (sol.log_det - quad_dual + quad_market)
    return v + log_ratio - sol.c_hat


def relative_entropy(dm: DualMeasure, m: DiscreteMarket) -> float:
    """KL divergence of the dual Gaussian from the market Gaussian.

    Closed Gaussian form (1/2)(trace(A^-1) - n + log |A| + n mu^2 / sigma^2),
    computed from the stored measure itself: the diagonal of the
    Gohberg-Semencul sum adds up to trace(K) = sum_i (n - 2i) v_i^2 / v_0, and
    log |K| comes from the taps' reflection coefficients
    (``toeplitz.taps_log_det``), so agreement with c_hat genuinely tests the
    closed-form determinant.  O(D^2) time and O(D) memory whatever n.
    Raises DomainError unless ``m`` is the measure's own market,
    NumericalError unless the stored covariance is positive definite.
    """
    _require_own_market(dm, m)
    v, n = dm.v, m.n
    try:
        log_det_k = taps_log_det(v, n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dual covariance is not positive definite") from exc
    # trace(K) - n, with v_0^2 / v_0 - 1 taken as v_0 - 1, which does not cancel
    trace_excess = n * (v[0] - 1.0) + float((n - 2.0 * np.arange(1, len(v))) @ np.square(v[1:])) / v[0]
    return 0.5 * (trace_excess - log_det_k + n * m.mu**2 / m.sigma**2)
