"""Seeded path simulation and the closed-form Gaussian expectation oracle.

Paths are drawn by numpy's standard normal sampler (the Marsaglia-Tsang
ziggurat) on the counter-based Philox 4x64 generator keyed by the seed, so a
(market, count, seed) triple reproduces bit-identical increments on any
platform.  The draws fill the batch row by row from one stream, so a seed's
first k paths are the same at every count.

For a quadratic wealth V(x) = (1/2) x'Qx + c'x + k and X ~ N(mu 1, sigma^2 I),

    E[-exp(-V)] = -exp(-k) |I + sigma^2 Q|^(-1/2)
                  * exp((1/2) b' M^-1 b - n mu^2 / (2 sigma^2)),

with M = I/sigma^2 + Q and b = mu/sigma^2 1 - c, valid iff I + sigma^2 Q is
positive definite.  For a general Q (``analytic_quadratic_utility``, the
oracle) one dense Cholesky factorization of M decides that and gives the
determinant, and a dense solve gives M^-1 b.  A strategy's Q is symmetric
Toeplitz and its linear term the Merton ratio mu / sigma^2, so b = 0 and
``estimate_utility`` reads M by its first column instead
(``toeplitz_log_neg_utility``, the exponent log(-E[-exp(-V)]), finite where
-exp of it underflows): Durbin's recursion gives the reflection
coefficients alpha_k, M is positive definite iff every |alpha_k| < 1, and the
log-determinant is a sum over them (Durbin 1960): O(n) memory, no n x n
array, and O(n^2) time in general.  The recursion stops with a certificate
where the coefficients vanish from some order p on, which takes O(n p) time:
for the optimal strategy M is A / sigma^2, whose inverse is D-banded, so p is
D or D + 1.

``generate`` refuses batches of more than ``MAX_PATH_STEPS`` path-steps
(paths * n) before it allocates anything, and ``estimate_utility`` leaves the
analytic oracle out once it would take more than ``DURBIN_STEP_BUDGET``
uncertified steps, the part of its cost that grows as n^2.

``brute_force_optimum`` maximizes the same closed-form expectation over every
quadratic strategy the delayed filtration can measure (Nelder-Mead, n <= 3):
an optimality oracle for the explicit solution that no production path runs,
so ``scipy.optimize``, the one scipy module this package uses, is imported
only when it is called.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, IntegrabilityError, LengthMismatch, OptimizerFailure, SizeError
from .market import DiscreteMarket
from .solver import StrategyWeights, wealth

GENERATOR_ID = "philox4x64/ziggurat-v2"

# Cap on paths * n for one batch.  Under tracemalloc, generate peaks at the 8
# bytes per path-step it returns, and estimate_utility at 16 to 32 more on top
# of the 8 of the increments it keeps: the half spectrum of the paths,
# 16 (L/2 + 1) / n bytes per step for the FFT length L (16.4 at n = 1000, 32.0
# at n = 1025 and 8193), or two arrays of the paths' shape on the direct
# branch (15.8 at n = 100).  A batch at the cap stays near 0.25 GB, 0.4 GB at
# worst.
MAX_PATH_STEPS = 10**7

# Most reflection coefficients the analytic oracle computes without a
# certificate that the rest vanish (``reflection_coefficients``' budget); past
# it, estimate_utility leaves the oracle out and says why.  The budget bounds
# the quadratic time of an uncertified column (a scaled or hand-built kernel);
# the optimal strategy's column is certified within D + 1 steps, O(n D) at any n.
DURBIN_STEP_BUDGET = 8191

# reflection_coefficients sets a tail of coefficients to zero only when its
# bound eta on them is at most this: the zeros move the log-determinant by less
# than eta^2 = 9e-14, the utility by less than a relative 5e-14.
DURBIN_TAIL_ETA = 3e-7

BRUTE_FORCE_MAX_N = 3


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Batch of i.i.d. Gaussian increment paths, reproducible from the seed."""

    seed: int
    increments: np.ndarray  # shape (count, n)

    @property
    def count(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True)
class UtilityReport:
    """Empirical expected utility of a strategy with its analytic companion."""

    empirical_mean: float
    std_error: float
    analytic: float | None
    n_paths: int
    seed: int
    ess: float  # effective sample size of the exp(-V) weights
    log_neg_mean: float  # log(-empirical_mean), finite where the mean itself underflows to -0.0
    relative_std_error: float  # std_error / |empirical_mean|, from the same shifted moments
    log_neg_analytic: float | None  # log(-analytic), the oracle's exponent: finite where analytic underflows to -0.0
    analytic_skipped: str | None = None  # why ``analytic`` was left out (step budget, linear term), else None

    def to_json(self) -> dict:
        """Every field but ``analytic_skipped``, which the caller reports after its own keys."""
        doc = asdict(self)
        del doc["analytic_skipped"]
        return doc


_thread = threading.local()  # .generator: this thread's Generator over a Philox bit generator


def _philox_generator(seed: int) -> np.random.Generator:
    """This thread's Generator, its Philox in the state of ``Philox(key=seed)``.

    Building a Philox costs four times as much as setting the state of one,
    and, seeded from a fresh ``SeedSequence()``, reads OS entropy that the key
    then overwrites.  So each thread builds one, from a fixed seed, and every
    call sets its state: counter 0, key (seed, 0), no buffered draws.
    """
    generator = getattr(_thread, "generator", None)
    if generator is None:
        generator = _thread.generator = np.random.Generator(np.random.Philox(0))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def generate(m: DiscreteMarket, count: int, seed: int) -> PathBatch:
    """Draw ``count`` increment paths of length n from Normal(mu, sigma^2).

    Standard normals from ``Generator(Philox(key=seed)).standard_normal``,
    scaled and shifted in place; path p is row p, drawn after rows 0..p-1.
    The generator is this thread's, set to that state (``_philox_generator``).
    ``count`` is an integer >= 1 and ``seed``, the key's first word, one in
    [0, 2^64); neither is a bool.  Any other seed would mislabel its paths.
    """
    if not (isinstance(count, numbers.Integral) and not isinstance(count, bool) and count >= 1):
        raise LengthMismatch(f"count must be an integer >= 1, got {count!r}")
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if count * m.n > MAX_PATH_STEPS:
        raise SizeError(f"{count} paths of {m.n} steps exceed the cap of {MAX_PATH_STEPS} path-steps")
    increments = _philox_generator(seed).standard_normal((count, m.n))
    increments *= m.sigma
    increments += m.mu
    return PathBatch(seed=seed, increments=increments)


def estimate_utility(batch: PathBatch, w: StrategyWeights, m: DiscreteMarket) -> UtilityReport:
    """Empirical mean and standard error of -exp(-V) over the batch.

    The analytic expectation of the same quadratic strategy is attached when
    it exists, evaluated by Durbin's recursion (``toeplitz_log_neg_utility``),
    with its exponent as ``log_neg_analytic``, finite where ``analytic``
    underflows to -0.0; where the oracle would pass ``DURBIN_STEP_BUDGET``, or
    the linear term is not the Merton ratio, ``analytic_skipped`` says why.
    V comes from ``solver.wealth``, which needs no holdings.
    Accumulation relies on numpy's pairwise summation, which is deterministic
    for a given batch.  The moments are three ``np.add.reduce`` passes over
    one y = -exp(shift - V) (see below), in this order: its sum s, and the
    mean s / P; the sum of the squares of y - s / P, over P - 1, the
    variance, whose square root over sqrt(P) is the standard error (0 for
    P = 1); and the sum of y^2, with ``ess`` = (-s)^2 / sum y^2.  Those are
    the operations of ``np.mean``, ``np.std(ddof=1)`` and, since y <= 0,
    ``np.sum(np.abs(y))``, so the moments equal theirs bit for bit.
    The moments are those of -exp(shift - V), shift = max(min V, 0), scaled
    back by exp(-shift): on long horizons exp(-V) alone squares to zero, and
    the mean itself can underflow to -0.0, where its log, -shift +
    log(-shifted mean), and the relative standard error stay finite.
    Moments that overflow come out non-finite, without a warning.
    """
    v = wealth(w, m, batch.increments)
    count = batch.count
    shift = max(float(np.minimum.reduce(v)), 0.0)
    scale = math.exp(-shift)
    with np.errstate(over="ignore", invalid="ignore"):
        y = -np.exp(shift - v)
        total = np.add.reduce(y)
        shifted_mean = float(total) / count  # at most -1 / count: the path of least V contributes -1 or less
        if count > 1:
            centred = y - shifted_mean
            variance = float(np.add.reduce(np.square(centred, out=centred))) / (count - 1)
            shifted_stderr = math.sqrt(variance) / math.sqrt(count)
        else:
            shifted_stderr = 0.0
        ess = float((-total) ** 2 / np.add.reduce(np.square(y)))  # y <= 0, so -total is the sum of |y|
    analytic = log_neg_analytic = skipped = None
    try:
        log_neg_analytic = toeplitz_log_neg_utility(*strategy_toeplitz_form(w, m), m)
        analytic = -math.exp(log_neg_analytic)
    except IntegrabilityError:
        pass
    except (SizeError, DomainError) as exc:
        skipped = str(exc)
    return UtilityReport(
        empirical_mean=shifted_mean * scale,
        std_error=shifted_stderr * scale,
        analytic=analytic,
        n_paths=count,
        seed=batch.seed,
        ess=ess,
        log_neg_mean=math.log(-shifted_mean) - shift,
        relative_std_error=shifted_stderr / -shifted_mean,
        log_neg_analytic=log_neg_analytic,
        analytic_skipped=skipped,
    )


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


def _exponent(log_det: float, quad_b: float, constant: float, m: DiscreteMarket) -> float:
    """The closed-form exponent log(-E[-exp(-V)]), from log |I + sigma^2 Q| and b'M^-1 b."""
    return -constant - 0.5 * log_det + 0.5 * quad_b - 0.5 * m.n * m.mu**2 / m.sigma**2


def analytic_quadratic_utility(
    quad: np.ndarray, linear: np.ndarray, constant: float, m: DiscreteMarket
) -> float:
    """E[-exp(-V)] in closed form for quadratic V under the market Gaussian.

    One dense Cholesky factorization of M decides that it is positive
    definite and gives log |M|; ``np.linalg.solve`` gives M^-1 b.  The oracle
    for any Q and any linear term, Toeplitz or not.
    """
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
    solved = np.linalg.solve(matrix, b)
    log_det = n * math.log(sig2) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -math.exp(_exponent(log_det, float(b @ solved), constant, m))


def reflection_coefficients(column: np.ndarray) -> np.ndarray:
    """Durbin's reflection coefficients alpha_0..alpha_{n-2} of the symmetric Toeplitz
    matrix with first ``column`` (column[0] > 0).

    The matrix is positive definite iff every |alpha_k| < 1; the recursion
    raises ``IntegrabilityError`` at the first that is not, the last
    included, so an array it returns always has n - 1 entries.  Each step
    is one ``np.dot`` and one update of the preallocated solution y of the
    Yule-Walker system (Golub & Van Loan, Algorithm 4.7.1).

    The recursion also stops where the remaining coefficients vanish, and
    returns the array with that tail set to exact zeros.  When
    |alpha_p| <= DURBIN_TAIL_ETA / n, which the certificate needs, the
    order-p predictor is tested against every remaining lag in one
    ``np.convolve`` (``_tail_vanishes``), and passes when the zeros move
    fsum_k (n - 1 - k) log1p(-alpha_k^2) by less than DURBIN_TAIL_ETA^2.  A
    test that fails defers the next to twice its order, so a column with no
    such tail pays for at most log2(n) convolutions and its bits are those
    of the full recursion.  Only the column is read.  A recursion that has
    computed DURBIN_STEP_BUDGET coefficients and still has no certificate
    raises ``SizeError``.
    """
    r = column[1:] / column[0]
    alphas = np.empty(len(r))
    y = np.empty(len(r))
    if len(r) == 0:
        return alphas
    rrev = r[::-1].copy()  # rrev[-k:] is r[k - 1::-1], contiguous: a faster dot than the negative stride
    trigger = DURBIN_TAIL_ETA / len(column)  # zeroing alpha_k on needs n |g_k| / beta_k = n |alpha_k| <= eta
    test_from = 1
    alpha = alphas[0] = y[0] = -r[0]
    beta = 1.0
    for k in range(1, len(r)):
        if not abs(alpha) < 1.0:
            break
        if k >= DURBIN_STEP_BUDGET:
            raise SizeError(f"Durbin's recursion computed {k} of {len(r)} reflection coefficients with no "
                            f"certificate that the rest vanish, the limit DURBIN_STEP_BUDGET = {k}")
        beta *= 1.0 - alpha * alpha
        alpha = alphas[k] = -(r[k] + np.dot(rrev[-k:], y[:k])) / beta
        if abs(alpha) <= trigger and k >= test_from:
            if _tail_vanishes(r, y[:k], beta, alphas[:k]):
                alphas[k:] = 0.0
                return alphas
            test_from = 2 * k
        y[:k] += alpha * y[k - 1 :: -1]
        y[k] = alpha
    if abs(alpha) < 1.0:
        return alphas
    raise IntegrabilityError(f"a reflection coefficient is {alpha}, not inside (-1, 1): the Toeplitz matrix is "
                             "not positive definite")


def reflection_log_det(alphas: np.ndarray) -> float:
    """fsum_k (n - 1 - k) log1p(-alpha_k^2) over the n - 1 reflection coefficients of an
    n x n Toeplitz matrix: its log-determinant less n log of its diagonal entry.

    The sum stops at the last nonzero coefficient: the terms past it are
    signed zeros, which ``math.fsum`` adds exactly, so the prefix's sum is the
    full sum, 0.0 for an all-zero column.  A certified tail
    (``reflection_coefficients``) is all exact zeros, so the sum is O(p).
    """
    n = len(alphas)
    nonzero = alphas.nonzero()[0]
    stop = int(nonzero[-1]) + 1 if len(nonzero) else 0
    head = alphas[:stop]
    return math.fsum(np.arange(n, n - stop, -1) * np.log1p(-head * head))


def _tail_vanishes(r: np.ndarray, y: np.ndarray, beta: float, prefix: np.ndarray) -> bool:
    """Whether the order-p predictor y (p = len(y) >= 1) proves alpha_k = 0 for k >= p to the bound.

    r is the column past lag 0 divided by lag 0, beta the error variance of
    y and ``prefix`` alpha_0..alpha_{p-1}.  g_j = r_j + sum_i y_i r_{j-1-i}
    (j = p..n-2) is the covariance of y's prediction error with lag j + 1,
    G = max |g_j|, and P = prod_k (1 + |alpha_k|) bounds 1 plus the 1-norm
    of every predictor of order <= p (order k + 1 is (y + alpha_k rev y, alpha_k)).

    The bound, taking the computed prefix as exact: let L be unit lower
    triangular, row m < p Durbin's order-m predictor and row m >= p y's.
    Then |T| = |L T L'| and L T L' = diag(beta_0..beta_{p-1}, beta_p, ...,
    beta_p) + F, where F has a zero diagonal and a zero leading p x p block
    and each other entry is a sum of g_j weighted by 1 and one predictor's
    taps, so |F_ij| <= G P.  With K = diag^-1/2 F diag^-1/2 (every
    beta_m >= beta_p), ||K||_F < n G P / beta_p = eta and tr K = 0, so for
    eta <= 1/2, |log det(I + K)| <= ||K||_F^2 < eta^2.  The diagonal's log
    det is fsum_k (n - 1 - k) log1p(-alpha_k^2) with alpha_k = 0 for k >= p:
    the zeros move that sum by less than eta^2 <= DURBIN_TAIL_ETA^2.
    """
    p = len(y)
    g = r[p:] + np.convolve(r[:-1], y, "valid")
    growth = math.exp(-float(np.add.reduce(np.log1p(np.abs(prefix)))))  # 1 / P, 0.0 where P overflows
    return (len(r) + 1) * float(np.maximum.reduce(np.abs(g))) <= DURBIN_TAIL_ETA * beta * growth


def toeplitz_log_neg_utility(
    column: np.ndarray, linear: np.ndarray, constant: float, m: DiscreteMarket
) -> float:
    """log(-E[-exp(-V)]), the closed-form exponent, for a symmetric Toeplitz Q given by its
    first ``column``: finite where -exp of it underflows to -0.0.

    M = I/sigma^2 + Q is Toeplitz with first column e_0/sigma^2 + column.
    With q_0 = column[0] and the reflection coefficients alpha_k of M,

        log |I + sigma^2 Q| = n log1p(sigma^2 q_0) + fsum_k (n - 1 - k) log1p(-alpha_k^2),

    with the two parts kept apart and the sum taken by ``math.fsum``: at
    n = 8192, sigma^2 = 1/n it matched ``value`` to 6e-14, where n log M_00 +
    n log sigma^2 and a running product of the 1 - alpha_k^2 missed by 1e-11.
    Where ``reflection_coefficients`` certifies a tail of zeros, its bound
    puts this log-determinant within DURBIN_TAIL_ETA^2 = 9e-14 of the full
    recursion's in exact arithmetic, and the utility within a relative
    5e-14.  The optimal strategy's column certifies by order D + 1 on every
    market the tests and the benchmark run.
    The linear term must be the Merton ratio mu / sigma^2 in every entry, as
    for every strategy of ``solver``: then b = 0 and the exponent needs no
    M^-1 b.  Any other linear term raises ``DomainError`` before Durbin runs;
    ``analytic_quadratic_utility`` takes it.  ``reflection_coefficients``
    gives the positive-definite verdict (``IntegrabilityError``) and raises
    ``SizeError`` past ``DURBIN_STEP_BUDGET`` uncertified steps.
    """
    n = m.n
    column = np.asarray(column, dtype=float)
    linear = np.asarray(linear, dtype=float)
    if column.shape != (n,) or linear.shape != (n,):
        raise LengthMismatch(f"form shapes {column.shape}, {linear.shape} do not match n={n}")
    sig2 = m.sigma**2
    if not (linear == m.mu / sig2).all():
        raise DomainError("the Toeplitz oracle takes only the Merton ratio mu / sigma^2 as its linear term")
    diagonal = sig2 * column[0]
    if not diagonal > -1.0:
        raise IntegrabilityError("I + sigma^2 Q is not positive definite")
    matrix_column = column.copy()
    matrix_column[0] += 1.0 / sig2
    log_det = n * math.log1p(diagonal) + reflection_log_det(reflection_coefficients(matrix_column))
    return _exponent(log_det, 0.0, constant, m)


def brute_force_optimum(m: DiscreteMarket):
    """Numerically maximize expected utility over quadratic-static strategies.

    The search family is f(s) = q (s - S0)^2 + l (s - S0) plus holdings that
    are affine in the increments observable under the delayed filtration;
    the theoretical optimum lies inside it.  Expectations are evaluated with
    the closed Gaussian form, and the search is Nelder-Mead from several
    starts.  Only n <= BRUTE_FORCE_MAX_N is allowed.
    """
    from scipy.optimize import minimize  # only this oracle needs the optimizer

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
