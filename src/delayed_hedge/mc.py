"""Seeded path simulation and the closed-form Gaussian expectation oracle.

Paths are generated with the counter-based Philox 4x64 generator and an
inverse-CDF transform of open-interval uniforms, so a (market, count, seed)
triple reproduces bit-identical increments on any platform and path p owns
the contiguous counter slice [p*n, (p+1)*n).

For a quadratic wealth V(x) = (1/2) x'Qx + c'x + k and X ~ N(mu 1, sigma^2 I),

    E[-exp(-V)] = -exp(-k) |I + sigma^2 Q|^(-1/2)
                  * exp((1/2) b' M^-1 b - n mu^2 / (2 sigma^2)),

with M = I/sigma^2 + Q and b = mu/sigma^2 1 - c, valid iff I + sigma^2 Q is
positive definite.  For a general Q (``analytic_quadratic_utility``, the
oracle) one dense Cholesky factorization of M decides that and gives both the
determinant and M^-1 b.  A strategy's Q is symmetric Toeplitz, so
``estimate_utility`` reads M by its first column instead
(``toeplitz_quadratic_utility``): Durbin's recursion gives the reflection
coefficients alpha_k, M is positive definite iff every |alpha_k| < 1, the
log-determinant is a sum over them, and Levinson's recursion solves M^-1 b
(Levinson 1947; Durbin 1960): O(n^2) time, O(n) memory, no n x n array.

``generate`` refuses batches of more than ``MAX_PATH_STEPS`` path-steps
(paths * n) before it allocates anything, and ``estimate_utility`` leaves the
analytic oracle, whose cost grows as n^2, out above ``ANALYTIC_MAX_N``.

``brute_force_optimum`` maximizes the same closed-form expectation over every
quadratic strategy the delayed filtration can measure (Nelder-Mead, n <= 3):
an optimality oracle for the explicit solution that no production path runs,
so ``scipy.optimize`` is imported only when it is called.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import IntegrabilityError, LengthMismatch, OptimizerFailure, SizeError
from .market import DiscreteMarket, validate_discrete
from .solver import StrategyWeights, evaluate_paths
from .toeplitz import SymToeplitz

GENERATOR_ID = "philox4x64/ndtri-v1"

# Cap on paths * n for one batch.  Under tracemalloc, generate peaks at 24
# bytes per path-step and estimate_utility at 40 more on top of the 8 of the
# increments it keeps, so a batch at the cap stays near 0.5 GB.
MAX_PATH_STEPS = 10**7

# Largest n for which estimate_utility runs the analytic oracle.  Its Durbin
# loop takes n Python steps and O(n^2) work: at the cap it took 0.2 s on a
# 2-vCPU host and peaked at 0.4 MB under tracemalloc (0.6-1.6 s at 16384).
ANALYTIC_MAX_N = 8192

BRUTE_FORCE_MAX_N = 3


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Batch of i.i.d. Gaussian increment paths, reproducible from the seed."""

    n: int
    count: int
    seed: int
    increments: np.ndarray  # shape (count, n)


@dataclass(frozen=True)
class UtilityReport:
    """Empirical expected utility of a strategy with its analytic companion."""

    empirical_mean: float
    std_error: float
    analytic: float | None
    n_paths: int
    seed: int
    ess: float  # effective sample size of the exp(-V) weights

    def to_json(self) -> dict:
        return asdict(self)


def generate(m: DiscreteMarket, count: int, seed: int) -> PathBatch:
    """Draw ``count`` increment paths of length n from Normal(mu, sigma^2)."""
    validate_discrete(m)
    if count < 1:
        raise LengthMismatch(f"count must be >= 1, got {count}")
    if count * m.n > MAX_PATH_STEPS:
        raise SizeError(f"{count} paths of {m.n} steps exceed the cap of {MAX_PATH_STEPS} path-steps")
    from scipy.special import ndtri  # scipy.special loads only when paths are drawn

    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    raw = gen.integers(0, 2**64, size=(count, m.n), dtype=np.uint64)
    # top 53 bits, centered: uniform on the open interval (0, 1)
    uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    increments = m.mu + m.sigma * ndtri(uniform)
    return PathBatch(n=m.n, count=count, seed=seed, increments=increments)


def estimate_utility(batch: PathBatch, w: StrategyWeights, m: DiscreteMarket) -> UtilityReport:
    """Empirical mean and standard error of -exp(-V) over the batch.

    The analytic expectation of the same quadratic strategy is attached when
    it exists and ``analytic_skip_reason`` gives none, evaluated by
    Levinson-Durbin.  Accumulation relies on numpy's pairwise summation, which
    is deterministic for a given batch.
    The moments are those of -exp(shift - V), shift = max(min V, 0), scaled
    back by exp(-shift): on long horizons exp(-V) alone squares to zero.
    Moments that overflow come out non-finite, without a warning.
    """
    if batch.n != m.n:
        raise LengthMismatch(f"batch has n={batch.n}, market has n={m.n}")
    _, v = evaluate_paths(w, m, batch.increments)
    shift = max(float(np.min(v)), 0.0)
    scale = math.exp(-shift)
    with np.errstate(over="ignore", invalid="ignore"):
        y = -np.exp(shift - v)
        mean = float(np.mean(y)) * scale
        stderr = float(np.std(y, ddof=1) / math.sqrt(batch.count)) * scale if batch.count > 1 else 0.0
        ess = float(np.sum(np.abs(y)) ** 2 / np.sum(y * y))
    analytic = None
    if analytic_skip_reason(m) is None:
        try:
            analytic = toeplitz_quadratic_utility(*strategy_toeplitz_form(w, m), m)
        except IntegrabilityError:
            pass
    return UtilityReport(
        empirical_mean=mean,
        std_error=stderr,
        analytic=analytic,
        n_paths=batch.count,
        seed=batch.seed,
        ess=ess,
    )


def analytic_skip_reason(m: DiscreteMarket) -> str | None:
    """Why ``estimate_utility`` leaves the analytic oracle out for ``m``, or None."""
    if m.n > ANALYTIC_MAX_N:
        return f"n = {m.n} exceeds ANALYTIC_MAX_N = {ANALYTIC_MAX_N}; the oracle's O(n^2) recursion is capped there"
    return None


def strategy_toeplitz_form(w: StrategyWeights, m: DiscreteMarket):
    """(column, linear, constant) with V(x) = (1/2) x'Qx + linear.x + constant.

    Q is symmetric Toeplitz with first ``column``: the convolution part
    contributes w_|i-j| off the diagonal and the static quadratic adds
    2*static_coeff everywhere; the constant is the negated price of the
    static leg.
    """
    n = m.n
    column = np.concatenate([[0.0], w.kernel[: n - 1]]) + 2.0 * w.static_coeff  # lag 0 contributes nothing
    return column, np.full(n, w.merton), -w.static_coeff * n * m.sigma_hat**2


def strategy_quadratic_form(w: StrategyWeights, m: DiscreteMarket):
    """``strategy_toeplitz_form`` with Q as a dense n x n matrix (for the dense oracle)."""
    column, linear, constant = strategy_toeplitz_form(w, m)
    return SymToeplitz(column).to_dense(), linear, constant


def _utility(log_det: float, quad_b: float, constant: float, m: DiscreteMarket) -> float:
    """-exp of the closed-form exponent, from log |I + sigma^2 Q| and b'M^-1 b."""
    exponent = -constant - 0.5 * log_det + 0.5 * quad_b - 0.5 * m.n * m.mu**2 / m.sigma**2
    return -math.exp(exponent)


def analytic_quadratic_utility(
    quad: np.ndarray, linear: np.ndarray, constant: float, m: DiscreteMarket
) -> float:
    """E[-exp(-V)] in closed form for quadratic V under the market Gaussian.

    One dense Cholesky factorization of M gives log |M| and, through
    ``cho_solve``, M^-1 b.  The oracle for any Q, Toeplitz or not.
    """
    from scipy.linalg import cho_solve

    n = m.n
    quad = np.asarray(quad, dtype=float)
    linear = np.asarray(linear, dtype=float)
    if quad.shape != (n, n) or linear.shape != (n,):
        raise LengthMismatch(f"form shapes {quad.shape}, {linear.shape} do not match n={n}")
    sig2 = m.sigma**2
    matrix = np.eye(n) / sig2 + quad
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IntegrabilityError("I + sigma^2 Q is not positive definite") from exc
    b = np.full(n, m.mu / sig2) - linear
    # chol.T is the upper factor in Fortran order, which LAPACK takes without a copy
    solved = cho_solve((chol.T, False), b, check_finite=False)
    log_det = n * math.log(sig2) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    return _utility(log_det, float(b @ solved), constant, m)


def reflection_coefficients(column: np.ndarray) -> np.ndarray:
    """Durbin's reflection coefficients alpha_0..alpha_{n-2} of the symmetric Toeplitz
    matrix with first ``column`` (column[0] > 0).

    The matrix is positive definite iff every |alpha_k| < 1; the recursion stops
    at the first that is not, which then ends the array returned.  Each step
    is one ``np.dot`` and one update of the preallocated solution y of the
    Yule-Walker system (Golub & Van Loan, Algorithm 4.7.1).
    """
    r = column[1:] / column[0]
    alphas = np.empty(len(r))
    y = np.empty(len(r))
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


def toeplitz_quadratic_utility(
    column: np.ndarray, linear: np.ndarray, constant: float, m: DiscreteMarket
) -> float:
    """``analytic_quadratic_utility`` for a symmetric Toeplitz Q given by its first ``column``.

    M = I/sigma^2 + Q is Toeplitz with first column e_0/sigma^2 + column.
    With q_0 = column[0] and the reflection coefficients alpha_k of M,

        log |I + sigma^2 Q| = n log1p(sigma^2 q_0) + fsum_k (n - 1 - k) log1p(-alpha_k^2),

    with the two parts kept apart and the sum taken by ``math.fsum``: at
    n = 8192, sigma^2 = 1/n it matched ``value`` to 6e-14, where n log M_00 +
    n log sigma^2 and a running product of the 1 - alpha_k^2 missed by 1e-11.
    M^-1 b comes from ``scipy.linalg.solve_toeplitz`` and is skipped when b is
    exactly zero, as for every strategy whose linear term is the Merton ratio.
    """
    n = m.n
    column = np.asarray(column, dtype=float)
    linear = np.asarray(linear, dtype=float)
    if column.shape != (n,) or linear.shape != (n,):
        raise LengthMismatch(f"form shapes {column.shape}, {linear.shape} do not match n={n}")
    sig2 = m.sigma**2
    diagonal = sig2 * column[0]
    if not diagonal > -1.0:
        raise IntegrabilityError("I + sigma^2 Q is not positive definite")
    matrix_column = column.copy()
    matrix_column[0] += 1.0 / sig2
    alphas = reflection_coefficients(matrix_column)
    if not np.all(np.abs(alphas) < 1.0):
        raise IntegrabilityError("I + sigma^2 Q is not positive definite")
    weights = np.arange(n - 1, 0, -1)
    log_det = n * math.log1p(diagonal) + math.fsum(weights * np.log1p(-alphas * alphas))
    b = np.full(n, m.mu / sig2) - linear
    quad_b = 0.0
    if np.any(b):
        from scipy.linalg import solve_toeplitz

        quad_b = float(b @ solve_toeplitz(matrix_column, b, check_finite=False))
    return _utility(log_det, quad_b, constant, m)


def brute_force_optimum(m: DiscreteMarket):
    """Numerically maximize expected utility over quadratic-static strategies.

    The search family is f(s) = q (s - S0)^2 + l (s - S0) plus holdings that
    are affine in the increments observable under the delayed filtration;
    the theoretical optimum lies inside it.  Expectations are evaluated with
    the closed Gaussian form, and the search is Nelder-Mead from several
    starts.  Only n <= BRUTE_FORCE_MAX_N is allowed.
    """
    from scipy.optimize import minimize  # only this oracle needs the optimizer

    validate_discrete(m)
    n = m.n
    if n > BRUTE_FORCE_MAX_N:
        raise SizeError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    # gamma_i may load on x_j exactly when j <= i - 1 - D (1-based).
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, i - m.delay)]
    dim = 2 + n + len(pairs)

    def assemble(p):
        q, l = p[0], p[1]
        g = np.asarray(p[2 : 2 + n])
        quad = 2.0 * q * np.ones((n, n))
        for (i, j), h in zip(pairs, p[2 + n :]):
            quad[i - 1, j - 1] += h
            quad[j - 1, i - 1] += h
        lin = l * np.ones(n) + g
        const = -q * n * m.sigma_hat**2
        return quad, lin, const

    def negative_utility(p):
        try:
            return -analytic_quadratic_utility(*assemble(p), m)
        except IntegrabilityError:
            return 1e6  # outside the integrable region

    best = None
    for shift in (0.0, 0.1, -0.1):
        res = minimize(
            negative_utility,
            np.full(dim, shift),
            method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-13, maxiter=40000, maxfev=40000),
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun) or best.fun >= 1e6:
        raise OptimizerFailure("no integrable optimum found")
    return -best.fun, list(best.x)
