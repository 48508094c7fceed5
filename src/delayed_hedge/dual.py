"""Dual martingale measure and the pathwise verification identity.

Under the dual measure the increments are centered Gaussian with covariance
sigma^2 A^-1, which is D-banded (increments are independent of the lagged
past) and puts the market's pricing law on the terminal price.  The constant

    C = n (mu^2 - a sigma_hat^2) / (2 sigma^2) + (1/2) log |A|

closes the identity V(x) + log(dQ/dP)(x) = C for every path x, and equals
both the relative entropy of the dual measure and -log(-value).  C is the
``c_hat`` view of ``solver.solve``; every function here reads one solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .market import DiscreteMarket
from .solver import causal_convolve, evaluate_paths, solve, strategy
from .toeplitz import check_banded, inverse_via_v


@dataclass(frozen=True)
class DualMeasure:
    """Centered Gaussian law of the increments under the dual measure."""

    covariance: np.ndarray
    c_hat: float


def dual_constant(m: DiscreteMarket) -> float:
    """The verification constant C (equals -log(-value))."""
    return solve(m).c_hat


def build_dual(m: DiscreteMarket) -> DualMeasure:
    """Construct the dual measure for the market's optimal strategy."""
    sol = solve(m)
    covariance = m.sigma**2 * inverse_via_v(sol.a, m.delay, m.n)
    c_hat, u = sol.c_hat, sol.value
    if abs(-math.exp(-c_hat) - u) > 1e-12 * abs(u):
        raise NumericalError(f"dual constant {c_hat} inconsistent with value {u}")
    return DualMeasure(covariance=covariance, c_hat=c_hat)


def check_delayed_martingale(dm: DualMeasure, delay: int, tol: float) -> bool:
    """Structural delayed-martingale check for a Gaussian measure.

    A centered Gaussian increment law is a martingale for the delayed
    filtration iff its covariance is D-banded, so the band is tested directly
    instead of via conditional Monte Carlo.
    """
    return check_banded(dm.covariance, delay, tol)


def check_marginal(dm: DualMeasure, m: DiscreteMarket, tol: float) -> bool:
    """True iff Var(S_n - S_0) under the dual measure equals n sigma_hat^2."""
    total = float(dm.covariance.sum())
    target = m.n * m.sigma_hat**2
    return abs(total - target) <= tol * abs(target)


def verification_residual(m: DiscreteMarket, x: np.ndarray):
    """V(x) + log(dQ/dP)(x) - C, which vanishes identically for the optimum.

    ``x`` may be one path of shape (n,) (returns a float) or a batch of
    shape (paths, n) (returns an array).  The dual log-density uses the
    closed-form determinant; tests cross-check it against a factorization.
    The identity is checked for ``strategy(m)``, and the dual side is read
    from the solution those weights came from: its quadratic form is
    x'Ax = (a + 1)|x|^2 + 2 x.(b * x) with the causal convolution b * x of
    ``causal_convolve``, so no n x n matrix is built and each path costs
    O(n log n).  The weights' own kernel is evaluated, never the solution's,
    so a wrong strategy shows up as a nonzero residual.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    paths = x[None, :] if single else x
    w = strategy(m)
    sol = w.solution
    _, v = evaluate_paths(w, m, paths)

    lagged = np.sum(paths * causal_convolve(paths, sol.b), axis=1)
    quad_dual = ((sol.a + 1.0) * np.sum(paths * paths, axis=1) + 2.0 * lagged) / m.sigma**2
    quad_market = np.sum((paths - m.mu) ** 2, axis=1) / m.sigma**2
    log_ratio = 0.5 * (sol.log_det - quad_dual + quad_market)

    residual = v + log_ratio - sol.c_hat
    return float(residual[0]) if single else residual


def relative_entropy(dm: DualMeasure, m: DiscreteMarket) -> float:
    """KL divergence of the dual Gaussian from the market Gaussian.

    Closed Gaussian form (1/2)(trace(A^-1) - n + log |A| + n mu^2 / sigma^2),
    computed from the covariance matrix itself: the trace comes straight off
    the diagonal and log |A| from a Cholesky factorization, so agreement with
    c_hat genuinely tests the closed-form determinant.
    """
    cov = dm.covariance
    n = cov.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dual covariance is not positive definite") from exc
    trace_inv_a = float(np.trace(cov)) / m.sigma**2
    log_det_a = n * math.log(m.sigma**2) - 2.0 * float(np.sum(np.log(np.diag(chol))))
    return 0.5 * (trace_inv_a - n + log_det_a + n * m.mu**2 / m.sigma**2)
