"""Continuous-limit weight kernel and limit value for vanishing step size.

As the trading grid is refined, n * a_n converges to alpha / (1 - alpha H)
where alpha depends only on the delay H and the ratio varsigma / varsigma_hat,
and the scaled weights converge to the function kappa on [0, 1] that solves
the delay equation

    kappa_t = alpha * integral of kappa over [t - H, t]   for t >= H,

with constant history kappa_t = alpha / (1 - alpha H) on [0, H).  Solving by
the method of steps gives an exponential polynomial on each interval
[kH, (k+1)H):

    kappa_t = alpha/(1 - alpha H)
              + exp(alpha (t - kH)) * sum_{j=0}^{k-1} c_{k-j} (-alpha)^j (t - kH)^j / j!,

with c_1 = -alpha and c_{k+1} = exp(alpha H) * sum_{j=0}^{k-1} c_{k-j} (-alpha H)^j / j!.
kappa jumps at H and is continuous on [H, 1].  The limit expected utility is

    U = -exp((1/2)(-theta^2/varsigma^2
              + alpha (varsigma_hat^2 / (varsigma^2 (1 - alpha H)) + H - 1))) * sqrt(1 - alpha H)

and the limit static option is alpha / (2 varsigma^2 (1 - alpha H)) * (P_1 - P_0)^2.

An independent RK4 method-of-steps integrator and the first ten c_k in closed
form are provided as cross-check oracles for the recursion.
Quadrature and the oracles evaluate one interval's polynomial on whole node
arrays; scalar ``kappa`` keeps ``math.exp``.  ``kernel_spec`` builds at most
``MAX_INTERVALS`` intervals (H >= 0.001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericalError, SizeError
from .market import ContinuousMarket, validate_continuous


def alpha(H: float, varsigma: float, varsigma_hat: float) -> float:
    """The limit root scale alpha(H, varsigma, varsigma_hat).

    Equals (1/H) (1 - 2 / (H x + sqrt((H x)^2 + 4 x (1 - H)))) with
    x = varsigma^2 / varsigma_hat^2.  The numerator is expanded through its
    conjugate when H x <= 2 so that equal volatilities give exactly zero
    instead of a cancellation residue.
    """
    if not 0.0 < H <= 1.0:
        raise DomainError(f"H must lie in (0, 1], got {H}")
    if not (varsigma > 0 and varsigma_hat > 0):
        raise DomainError("volatilities must be positive")
    x = varsigma**2 / varsigma_hat**2
    hx = H * x
    root = math.sqrt(hx * hx + 4.0 * x * (1.0 - H))
    if hx <= 2.0:
        numerator = 4.0 * (x - 1.0) / (root + 2.0 - hx)
    else:
        numerator = (hx - 2.0) + root
    return numerator / (H * (hx + root))


def interval_count(H: float) -> int:
    """K = ceil(1/H), computed on the exact decimal rational of H."""
    return math.ceil(1 / Fraction(str(H)))


def c_coefficients(alpha_value: float, H: float) -> np.ndarray:
    """The K = ceil(1/H) interval constants c_1..c_K of the kernel.

    c[k] (0-based) holds c_{k+1}, which is exp(alpha H) times the interval
    series of c_1..c_k at ratio -alpha H (``_series``).
    """
    K = interval_count(H)
    c = np.zeros(K)
    if K >= 1:
        c[0] = -alpha_value
    growth = math.exp(alpha_value * H)
    for k in range(1, K):
        c[k] = growth * _series(c, k, -alpha_value * H)
    return c


def _series(c: np.ndarray, k: int, ratio):
    """sum_{j<k} c[k-1-j] ratio^j / j!, with an incrementally updated term (no factorials).

    ``ratio`` is -alpha H for the recurrence of c_coefficients and -alpha (t - kH)
    (a float or a node array) for interval k's polynomial in ``_piece``.
    """
    term = 1.0
    total = 0.0
    for j in range(k):
        total += c[k - 1 - j] * term
        term *= ratio / (j + 1)
    return total


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """alpha, delay H, interval count K, and the interval constants c_1..c_K."""

    alpha: float
    H: float
    K: int
    c: np.ndarray

    @property
    def level(self) -> float:
        """Constant value of kappa on [0, H)."""
        return self.alpha / (1.0 - self.alpha * self.H)


# kernel_spec builds at most this many intervals (H >= 0.001): c_coefficients is O(K^2), about
# 0.24 s at K = 1000 on a 2-vCPU host.  alpha and limit_value need no c_k and take any H.
MAX_INTERVALS = 1000


def kernel_spec(H: float, varsigma: float, varsigma_hat: float) -> KernelSpec:
    """alpha and the interval constants; NumericalError when either is not finite.

    At extreme ratios the series terms (-alpha H)^j / j! overflow while
    exp(alpha H) underflows, which leaves NaN constants.
    """
    a = alpha(H, varsigma, varsigma_hat)
    K = interval_count(H)
    if K > MAX_INTERVALS:
        raise SizeError(f"kernel needs K = ceil(1/H) <= {MAX_INTERVALS} intervals (H >= 0.001), got K = {K}")
    with np.errstate(over="ignore", invalid="ignore"):
        c = c_coefficients(a, H)
    if not (math.isfinite(a) and np.isfinite(c).all()):
        ratio = varsigma_hat**2 / varsigma**2
        raise NumericalError(
            f"kernel constants are not finite at H = {H}, varsigma_hat^2/varsigma^2 = {ratio:g} (alpha H = {a * H:g})"
        )
    return KernelSpec(alpha=a, H=H, K=K, c=c)


def spec_for_market(c: ContinuousMarket) -> KernelSpec:
    validate_continuous(c)
    return kernel_spec(c.H, c.varsigma, c.varsigma_hat)


def _piece(t, k: int, spec: KernelSpec):
    """Evaluate interval k's exponential polynomial at t (no domain snapping).

    At a float (``math.exp``) or a node array (``np.exp``); outside [kH, (k+1)H)
    it is the one-sided analytic continuation quadrature needs at breakpoints.
    """
    if k <= 0:
        return np.full_like(t, spec.level) if isinstance(t, np.ndarray) else spec.level
    u = t - k * spec.H
    total = _series(spec.c, k, (-spec.alpha) * u)
    return spec.level + (np.exp if isinstance(u, np.ndarray) else math.exp)(spec.alpha * u) * total


def _interval_index(t: float, spec: KernelSpec) -> int:
    # Right-continuous everywhere except t = 1 (and t = KH when 1/H is an
    # integer), which belongs to the last interval by left-evaluation.
    return min(math.floor(t / spec.H), spec.K - 1)


def kappa(t: float, spec: KernelSpec) -> float:
    """The kernel kappa at t in [0, 1]; exactly the constant level for t < H."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if t < spec.H:
        return spec.level
    return _piece(t, _interval_index(t, spec), spec)


def gamma_kernel(u: float, spec: KernelSpec) -> float:
    """Strategy weight at lag u: kappa_u minus the constant level (exactly 0 below H)."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"lag must lie in [0, 1], got {u}")
    return kappa(u, spec) - spec.level


def smooth_pieces(breaks, spec: KernelSpec):
    """Cut the sorted ``breaks`` also at the multiples of H strictly inside them into arrays (left,
    right, k): interval k's polynomial (k read at the midpoint) is smooth on [left, right]."""
    breaks = np.asarray(breaks, dtype=float)
    multiples = np.arange(spec.K + 1) * spec.H
    cuts = np.unique(np.concatenate([breaks, multiples[(breaks[0] < multiples) & (multiples < breaks[-1])]]))
    k = np.minimum(np.floor(0.5 * (cuts[:-1] + cuts[1:]) / spec.H).astype(int), spec.K - 1)
    return cuts[:-1], cuts[1:], k


def simpson(f, lo, hi, panels: int):
    """Composite Simpson rule with ``panels`` panels; f gets the whole node array,
    one row per interval when ``lo`` and ``hi`` are arrays of interval ends."""
    # C order, so that each row is summed as the call on its interval alone would be
    vals = np.ascontiguousarray(f(np.linspace(lo, hi, 2 * panels + 1, axis=-1)))
    h = (hi - lo) / (2 * panels)
    odd, even = vals[..., 1:-1:2].sum(axis=-1), vals[..., 2:-2:2].sum(axis=-1)
    return h / 3.0 * (vals[..., 0] + vals[..., -1] + 4.0 * odd + 2.0 * even)


def integrate_kappa(spec: KernelSpec, lo: float, hi: float, quadsteps: int) -> float:
    """Integral of kappa over [lo, hi], split at multiples of H.

    Each smooth piece is integrated with its own polynomial (one-sided at the
    jump in H) and gets a share of ``quadsteps`` Simpson panels proportional
    to its length.
    """
    if hi < lo:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
    total = 0.0
    for left, right, k in zip(*(a.tolist() for a in smooth_pieces([lo, hi], spec))):
        panels = max(1, int(math.ceil(quadsteps * (right - left) / spec.H)))
        total += simpson(lambda t: _piece(t, k, spec), left, right, panels)
    return total


def kappa_integral_residual(t: float, spec: KernelSpec, quadsteps: int = 2000) -> float:
    """kappa_t - alpha * integral of kappa over [t - H, t] (zero in theory)."""
    if not spec.H <= t <= 1.0:
        raise DomainError(f"t must lie in [H, 1], got {t}")
    return kappa(t, spec) - spec.alpha * integrate_kappa(spec, t - spec.H, t, quadsteps)


def limit_value(c: ContinuousMarket) -> float:
    """Limit of the optimal expected utility as the trading frequency grows."""
    validate_continuous(c)
    a = alpha(c.H, c.varsigma, c.varsigma_hat)
    one_minus = 1.0 - a * c.H
    exponent = 0.5 * (
        -c.theta**2 / c.varsigma**2
        + a * (c.varsigma_hat**2 / (c.varsigma**2 * one_minus) + c.H - 1.0)
    )
    return -math.exp(exponent) * math.sqrt(one_minus)


def limit_static_coeff(c: ContinuousMarket) -> float:
    """Limit coefficient of (P_1 - P_0)^2 in the static option."""
    validate_continuous(c)
    a = alpha(c.H, c.varsigma, c.varsigma_hat)
    return a / (2.0 * c.varsigma**2 * (1.0 - a * c.H))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def kappa_ode_grid(spec: KernelSpec, step: float = 1e-4):
    """Integrate the delay equation kappa' = alpha (kappa_t - kappa_{t-H}) by RK4.

    Method of steps (Bellman & Cooke 1963): each interval [kH, (k+1)H] is an
    ODE whose delayed term is read from the previous interval's grid (4-point
    Lagrange for the half-step stages).  The initial value at t = H is
    alpha * H * level, taken from the integral equation itself, so the
    integrator shares nothing with the series representation.  Returns
    (ts, values) on [H, min(KH, 1)].
    """
    H, K, al = spec.H, spec.K, spec.alpha
    m = max(4, int(math.ceil(H / step)))
    h = H / m
    history = np.full(m + 1, spec.level)  # kappa on [0, H], left limit at H
    y = al * H * spec.level
    # Lagrange weights for the midpoints of a grid's first, interior and last step
    first, inside, last = np.array([[5, 15, -5, 1], [-1, 9, 9, -1], [1, -5, 15, 5]]) / 16.0
    ys = [[y]]
    for interval in range(1, K):
        windows = sliding_window_view(history, 4)
        g_half = np.concatenate([[windows[0] @ first], windows @ inside, [windows[-1] @ last]]).tolist()
        current = [y]
        for i in range(m):
            k1 = al * (y - history[i])
            k2 = al * (y + 0.5 * h * k1 - g_half[i])
            k3 = al * (y + 0.5 * h * k2 - g_half[i])
            k4 = al * (y + h * k3 - history[i + 1])
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            current.append(y)
        history = np.array(current)
        ys.append(current[1:])
    ts = np.concatenate([[H]] + [interval * H + np.arange(1, m + 1) * h for interval in range(1, K)])
    ys = np.concatenate(ys)
    keep = ts <= 1.0 + 1e-12
    return ts[keep], ys[keep]


def c_closed_forms(alpha_value: float, H: float) -> np.ndarray:
    """First ten interval constants in closed form (cross-check oracle)."""
    a = alpha_value
    E = math.exp(a * H)
    z = a * H
    return np.array(
        [
            -a,
            -E * a,
            E * a * (z - E),
            E * a * (-(z**2) + 4 * E * z - 2 * E**2) / 2,
            E * (-6 * E**3 + (18 * E**2 + z * (z - 12 * E)) * z) * a / 6,
            -E * a * (z**4 - 32 * E * z**3 + 108 * E**2 * z**2 - 96 * z * E**3 + 24 * E**4) / 24,
            E * a * (
                -120 * E**5
                + z * (z**4 - 80 * E * z**3 + 540 * E**2 * z**2 - 960 * z * E**3 + 600 * E**4)
            ) / 120,
            -E * a / 720 * (
                720 * E**6
                + z * (
                    z**5 - 192 * E * z**4 + 2430 * E**2 * z**3
                    - 7680 * z**2 * E**3 + 9000 * z * E**4 - 4320 * E**5
                )
            ),
            E * a / 5040 * (
                -5040 * E**7
                + z * (
                    z**6 - 448 * E * z**5 + 10206 * E**2 * z**4 - 53760 * z**3 * E**3
                    + 105000 * z**2 * E**4 - 90720 * z * E**5 + 35280 * E**6
                )
            ),
            -E * a / 40320 * (
                40320 * E**8
                + z * (
                    z**7 - 1024 * E * z**6 + 40824 * E**2 * z**5 - 344064 * z**4 * E**3
                    + 1050000 * z**3 * E**4 - 1451520 * z**2 * E**5
                    + 987840 * z * E**6 - 322560 * E**7
                )
            ),
        ]
    )
