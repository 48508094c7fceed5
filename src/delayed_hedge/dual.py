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
formula.  The D x D Schur block S of its last D rows is derived from the taps
on first use (``toeplitz.schur_corner``).  The entropy reads
log |A^-1| = (n - D) log v_0 + log |S| off one D x D Cholesky factorization
(``toeplitz.corner_log_det``), the marginal and the trace are sums over v and
S, and the martingale check tests the equation A v = e_0 that the taps
solve, by one convolution with A's first row.  Building the measure
and its entropy and marginal take O(D^3) time and O(D^2) memory whatever n,
and the check O(n D).  No path here imports scipy.  The dense oracles read
the covariance's band as sigma^2 ``toeplitz.inverse_band(v, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, LengthMismatch, NumericalError
from .market import DiscreteMarket
from .solver import HedgeSolution, as_paths, quadratic_forms, solve, strategy, wealth
from .toeplitz import corner_log_det, schur_corner, v_vector


@dataclass(frozen=True, eq=False)
class DualMeasure:
    """Centered Gaussian law of the increments under the dual measure.

    The covariance is sigma^2 K with K the Gohberg-Semencul sum of the taps
    ``v`` (D = len(v) - 1): K = G G' + diag(0, corner), where G holds the
    first n - D columns of T(v) / sqrt(v_0), T(v) the lower-triangular
    Toeplitz matrix of the taps, and ``corner`` is the D x D Schur complement
    of K's first n - D rows, derived from the taps on first use.  For the
    measure ``build_dual`` makes, K = A^-1 and v is its first column.
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

    @cached_property
    def corner(self) -> np.ndarray:
        """The D x D Schur complement S of K's first n - D rows (``toeplitz.schur_corner``)."""
        return schur_corner(self.v)


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

    The variance of the sum is sigma^2 1'K1 = sigma^2 ((n - D) (sum v)^2 / v_0
    + 1'S1): every column of G sums to (sum v) / sqrt(v_0).  O(D^2).
    False for a leading tap v_0 <= 0, which no variance has and both terms
    divide by.  Raises DomainError unless ``m`` is the measure's own market.
    """
    _require_own_market(dm, m)
    v = dm.v
    if not v[0] > 0.0:
        return False
    total = m.sigma**2 * ((m.n - len(v) + 1) * float(v.sum()) ** 2 / v[0] + float(dm.corner.sum()))
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
    computed from the stored measure itself: trace(K) = (n - D) |v|^2 / v_0
    + trace(S), taken less n, and log |K| = (n - D) log v_0 + log |S| from one D x D
    Cholesky factorization (``toeplitz.corner_log_det``), so agreement with
    c_hat genuinely tests the closed-form determinant.  O(D^3) whatever n.
    Raises DomainError unless ``m`` is the measure's own market,
    NumericalError unless the stored covariance is positive definite.
    """
    _require_own_market(dm, m)
    v, n = dm.v, m.n
    if not v[0] > 0.0:  # checked before the corner, which divides by v_0
        raise NumericalError(f"dual covariance is not positive definite: leading tap v_0 = {v[0]}")
    try:
        log_det_k = corner_log_det(v, dm.corner, n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dual covariance is not positive definite") from exc
    width = len(v) - 1
    # trace(K) - n, with |v|^2 / v_0 - 1 formed without the cancellation of |v|^2 / v_0 against 1
    trace_excess = (n - width) * ((v[0] - 1.0) + float(v[1:] @ v[1:]) / v[0]) + float(dm.corner.trace()) - width
    return 0.5 * (trace_excess - log_det_k + n * m.mu**2 / m.sigma**2)
