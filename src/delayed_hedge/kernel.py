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

An independent RK4 method-of-steps integrator and the first ten c_k as the
delayed-exponential sum (``c_closed_forms``) are cross-check oracles for the
recursion.
Arrays of nodes inside one interval, its breakpoints included, go through
``_interval_values``: Horner's rule in alpha (t - kH), two array passes per
term.  A float goes through the written-out series with ``math.exp``:
``_piece`` at an explicit interval, and scalar ``kappa`` with the series loop
inline.  The constants are a tuple of Python floats, and the scalar loops
(the recurrence, ``_piece`` and scalar ``kappa``) run on Python floats, since
numpy scalars give the same bits with more overhead per operation; ``kappa``
and ``kappa_integral_residual`` convert ``t`` on entry.
The RK4 oracle has no step loop: one RK4 step of the linear delay equation is
the map y -> rho y + f_i, so ``kappa_ode_grid`` solves an interval's m steps
as one recurrence, y_j = rho^j (y_0 + sum_{i<j} f_i rho^-(i+1)), by
``cumsum`` in chunks of L steps with L |log rho| <= 1 and powers
exp(j log1p(rho - 1)): a fixed number of array operations per interval, a
few more per chunk.  ``kernel_spec`` builds at most ``MAX_INTERVALS``
intervals (H >= 0.001), and ``kappa_ode_grid`` at most ``MAX_ODE_NODES``
nodes.

``kappa_integral_residual`` reads the window integral off running Simpson
integrals that a spec builds once per interval and ``quadsteps`` (panels per
length H), the first time a window reaches that interval: one
``_interval_values`` call on 2 quadsteps + 1 nodes, cumulated
into quadsteps + 1 floats.  Each window end then adds one Simpson panel of its
own, so a spec costs O(K quadsteps) once and each t O(1) table lookups and a
few scalar evaluations of O(K) terms.  A spec keeps the tables of one
``quadsteps`` at a time, at most K (quadsteps + 1) 8 bytes: 16 MB at
K = MAX_INTERVALS and quadsteps = 2000 (one table more at H = 1, where the
window ending at t = 1 = H reaches interval 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, NumericalError, SizeError
from .market import ContinuousMarket


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
    return _alpha_core(H, varsigma**2 / varsigma_hat**2)


def _alpha_core(H, x):
    """alpha at H and x = varsigma^2 / varsigma_hat^2, unchecked: Python floats, or
    broadcasting arrays whose every cell keeps the bits of the float call.

    Only +, -, *, / and sqrt touch the inputs, each correctly rounded in both
    arithmetics.  Arrays form both sides of the branch on every cell (where
    H x > 2 the conjugate form, which is dropped, may divide by zero); floats
    form only the side they take, so they raise only where they always did.
    """
    hx = H * x
    array = isinstance(hx, np.ndarray)
    root = (np.sqrt if array else math.sqrt)(hx * hx + 4.0 * x * (1.0 - H))

    def conjugate():
        return 4.0 * (x - 1.0) / (root + 2.0 - hx)

    def direct():
        return (hx - 2.0) + root

    if array:
        numerator = np.where(hx <= 2.0, conjugate(), direct())
    else:
        numerator = conjugate() if hx <= 2.0 else direct()
    return numerator / (H * (hx + root))


def interval_count(H: float) -> int:
    """K = ceil(1/H), computed on the exact decimal rational of H."""
    return math.ceil(1 / Fraction(str(H)))


def c_coefficients(alpha_value: float, H: float) -> tuple[float, ...]:
    """The K = ceil(1/H) interval constants c_1..c_K of the kernel.

    c[k] (0-based) holds c_{k+1}, which is exp(alpha H) times the interval
    series of c_1..c_k at ratio -alpha H (``_series``).
    """
    c = [-alpha_value]
    growth = math.exp(alpha_value * H)
    for k in range(1, interval_count(H)):
        c.append(growth * _series(c, k, -alpha_value * H))
    return tuple(c)


def _series(c: Sequence[float], k: int, ratio):
    """sum_{j<k} c[k-1-j] ratio^j / j!, with an incrementally updated term (no factorials).

    ``ratio`` is -alpha H for the recurrence of c_coefficients and -alpha (t - kH)
    for interval k's polynomial at a float t in ``_piece``.
    """
    term = 1.0
    total = 0.0
    for j in range(k):
        total += c[k - 1 - j] * term
        term *= ratio / (j + 1)
    return total


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """alpha, delay H and the interval constants c_1..c_K (Python floats)."""

    alpha: float
    H: float
    c: tuple[float, ...]

    @property
    def K(self) -> int:
        """Interval count ceil(1/H), the length of ``c``."""
        return len(self.c)

    @cached_property
    def level(self) -> float:
        """Constant value of kappa on [0, H)."""
        return self.alpha / (1.0 - self.alpha * self.H)

    @cached_property
    def _tables(self) -> dict[int, dict[int, np.ndarray]]:
        """{quadsteps: {k: running integrals of interval k}}, with at most one quadsteps key."""
        return {}

    def _integral_table(self, k: int, quadsteps: int) -> np.ndarray:
        """Simpson integrals of interval k's polynomial over [kH, kH + j H / quadsteps], j = 0..quadsteps.

        Built on first use from one ``_interval_values`` call on the
        2 quadsteps + 1 nodes of [kH, (k+1)H] and kept; asking for another
        ``quadsteps`` drops every table kept for the previous one.
        """
        tables = self._tables.get(quadsteps)
        if tables is None:
            self._tables.clear()
            tables = self._tables[quadsteps] = {}
        table = tables.get(k)
        if table is None:
            half = self.H / quadsteps * 0.5  # node 2j sits at kH + j H / quadsteps, as in _running_integral
            vals = _interval_values(np.arange(2 * quadsteps + 1) * (self.alpha * half), k, self)
            panels = half / 3.0 * (vals[:-2:2] + 4.0 * vals[1::2] + vals[2::2])
            table = tables[k] = np.concatenate([[0.0], np.cumsum(panels)])
        return table


# kernel_spec builds at most this many intervals (H >= 0.001), since c_coefficients is O(K^2) in
# Python floats.  alpha and limit_value need no c_k and take any H.
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
    c = c_coefficients(a, H)
    if not (math.isfinite(a) and all(map(math.isfinite, c))):
        ratio = varsigma_hat**2 / varsigma**2
        raise NumericalError(
            f"kernel constants are not finite at H = {H}, varsigma_hat^2/varsigma^2 = {ratio:g} (alpha H = {a * H:g})"
        )
    return KernelSpec(alpha=a, H=H, c=c)


def spec_for_market(c: ContinuousMarket) -> KernelSpec:
    return kernel_spec(c.H, c.varsigma, c.varsigma_hat)


def _interval_values(v: np.ndarray, k: int, spec: KernelSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Interval k's polynomial at nodes t inside the interval, given as v = alpha (t - kH).

    level + exp(v) times the polynomial sum_{j<k} c_{k-j} (-v)^j / j! by
    Horner's rule, its coefficients built as running products: two array
    passes per term, where the written-out series would take four.  In v the
    coefficients are the c_k over j!, never larger than the c_k; in u = t - kH
    they would carry alpha^j, which overflows at K = 1000 once |alpha| > 750.
    ``v`` is overwritten (it holds exp(v) on return when k >= 1); the
    values go to ``out``, or to a new array without one.
    """
    if out is None:
        out = np.empty_like(v)
    if k == 0:
        out.fill(spec.level)
        return out
    coefficients = [spec.c[k - 1]]
    scale = 1.0
    for j in range(1, k):
        scale /= -j
        coefficients.append(spec.c[k - 1 - j] * scale)
    out.fill(coefficients[-1])
    for coefficient in reversed(coefficients[:-1]):
        out *= v
        out += coefficient
    np.exp(v, out=v)
    out *= v
    out += spec.level
    return out


def _piece(t: float, k: int, spec: KernelSpec) -> float:
    """Interval k's exponential polynomial at a Python float t (no domain snapping).

    Outside [kH, (k+1)H) it is the one-sided analytic continuation quadrature
    needs at breakpoints.  Interval 0 has no series terms, so its polynomial
    is the level itself.
    """
    u = t - k * spec.H
    return spec.level + math.exp(spec.alpha * u) * _series(spec.c, k, -spec.alpha * u)


def _interval_at(t: float, spec: KernelSpec) -> int:
    """The interval whose polynomial gives kappa at t >= H.

    Right-continuous everywhere except t = 1 (and t = KH when 1/H is an
    integer), which belongs to the last interval by left-evaluation.  At
    least 1, so that at H = 1 (K = 1) kappa(1) is the value alpha H level
    after the jump, not the level; t >= H makes floor(t / H) >= 1 already.
    """
    k = math.floor(t / spec.H)
    return k if k < len(spec.c) else max(1, len(spec.c) - 1)


def kappa(t: float, spec: KernelSpec) -> float:
    """The kernel kappa at t in [0, 1]; exactly the constant level for t < H.

    ``t`` is taken as a Python float, so an ``np.float64`` gets the same fast
    scalar path and a float back.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    H, c, al = spec.H, spec.c, spec.alpha
    if t < H:
        return spec.level
    # _interval_at and _piece inline, in _series's order: a helper call per value measurably slows this hot path
    k = math.floor(t / H)
    if k >= len(c):
        k = max(1, len(c) - 1)
    u = t - k * H
    # _series from its second term on: its first adds c[k - 1] * 1.0 to 0.0 and makes the term
    # 1.0 * (ratio / 1), both exact (up to the sign of a zero total, which level + ... drops)
    total = c[k - 1]
    if k > 1:
        ratio = term = (-al) * u
        for j in range(2, k + 1):
            total += c[k - j] * term
            term *= ratio / j
    return spec.level + math.exp(al * u) * total


def smooth_pieces(breaks, spec: KernelSpec):
    """Cut the strictly increasing ``breaks`` also at the multiples of H strictly inside them
    into arrays (left, right, k, step): interval k's polynomial (k read at the midpoint) is
    smooth on [left, right], which lies in [breaks[step], breaks[step + 1]].

    Each multiple goes in before the first break not below it, unless it equals that break, so
    the cuts come out sorted without a sort, and the piece a multiple starts lies in the step
    before that break."""
    breaks = np.asarray(breaks, dtype=float)
    multiples = np.arange(spec.K + 1) * spec.H
    inside = multiples[(breaks[0] < multiples) & (multiples < breaks[-1])]
    at = np.searchsorted(breaks, inside)
    new = breaks[at] != inside
    inside, at = inside[new], at[new]
    cuts = np.insert(breaks, at, inside)
    step = np.insert(np.arange(len(breaks) - 1), at, at - 1)
    k = np.minimum(np.floor(0.5 * (cuts[:-1] + cuts[1:]) / spec.H).astype(int), spec.K - 1)
    return cuts[:-1], cuts[1:], k, step


def simpson_weights(panels: int) -> np.ndarray:
    """The composite Simpson weights (1, 4, 2, 4, ..., 2, 4, 1) on 2 ``panels`` + 1 nodes."""
    weights = np.full(2 * panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return weights


def _running_integral(spec: KernelSpec, k: int, s: float, at_s: float, quadsteps: int) -> float:
    """Simpson integral of interval k's polynomial over [kH, s]: the table entry up to the
    panel holding s, plus one Simpson panel of its own on the rest.  ``at_s`` is the
    polynomial's value at s, which the caller already holds."""
    table = spec._integral_table(k, quadsteps)
    width = spec.H / quadsteps
    j = min(max(math.floor((s - k * spec.H) / width), 0), quadsteps - 1)
    left = k * spec.H + j * width
    ends = _piece(left, k, spec) + at_s
    return table.item(j) + (s - left) / 6.0 * (ends + 4.0 * _piece(0.5 * (left + s), k, spec))


def kappa_integral_residual(t: float, spec: KernelSpec, quadsteps: int = 2000) -> float:
    """kappa_t - alpha * integral of kappa over [t - H, t] (zero in theory).

    With t in interval k, the window is the part of interval k - 1 above
    t - H plus the part of interval k below t, each integrated with its own
    polynomial (one-sided at the jump in H) by composite Simpson with
    ``quadsteps`` panels per length H.  Both parts are read off the spec's
    running integrals (``KernelSpec._integral_table``): O(K quadsteps) once
    per spec, then O(1) lookups and a few scalar evaluations per t.
    """
    t = float(t)
    if not spec.H <= t <= 1.0:
        raise DomainError(f"t must lie in [H, 1], got {t}")
    # type() first: an isinstance check against the numbers ABC is slow next to the rest of the call
    integer = type(quadsteps) is int or isinstance(quadsteps, numbers.Integral) and type(quadsteps) is not bool
    if not (integer and quadsteps >= 1):
        raise DomainError(f"quadsteps must be an integer >= 1, got {quadsteps!r}")
    k = _interval_at(t, spec)
    s = t - spec.H
    whole = spec._integral_table(k - 1, quadsteps).item(quadsteps)
    below = whole - _running_integral(spec, k - 1, s, _piece(s, k - 1, spec), quadsteps)
    at_t = kappa(t, spec)  # interval k's polynomial at t, since t >= H
    return at_t - spec.alpha * (below + _running_integral(spec, k, t, at_t, quadsteps))


def limit_value(c: ContinuousMarket) -> float:
    """Limit of the optimal expected utility as the trading frequency grows."""
    a = _alpha_core(c.H, c.varsigma**2 / c.varsigma_hat**2)
    exponent, one_minus = _limit_exponent(c.H, a, -c.theta**2 / c.varsigma**2, c.varsigma**2, c.varsigma_hat**2)
    return -math.exp(exponent) * math.sqrt(one_minus)


def _limit_exponent(H, a, drift, vol2, pricing_vol2):
    """(exponent, 1 - alpha H) of the limit value -exp(exponent) sqrt(1 - alpha H), with
    drift = -theta^2 / varsigma^2 and the squared volatilities: floats or broadcasting
    arrays, like ``_alpha_core``."""
    one_minus = 1.0 - a * H
    return 0.5 * (drift + a * (pricing_vol2 / (vol2 * one_minus) + H - 1.0)), one_minus


def limit_static_coeff(c: ContinuousMarket) -> float:
    """Limit coefficient of (P_1 - P_0)^2 in the static option."""
    a = _alpha_core(c.H, c.varsigma**2 / c.varsigma_hat**2)
    return a / (2.0 * c.varsigma**2 * (1.0 - a * c.H))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

# kappa_ode_grid holds at most this many nodes, a few dozen bytes each across its arrays, so its
# time and memory stay bounded.  The oracle checks run step 1e-4 (about 10^4 nodes).
MAX_ODE_NODES = 10**6


def kappa_ode_grid(spec: KernelSpec, step: float = 1e-4):
    """Integrate the delay equation kappa' = alpha (kappa_t - kappa_{t-H}) by RK4.

    Method of steps (Bellman & Cooke 1963): each interval [kH, (k+1)H] is an
    ODE whose delayed term is read from the previous interval's grid (4-point
    Lagrange for the half-step stages).  The initial value at t = H is
    alpha * H * level, taken from the integral equation itself, so the
    integrator shares nothing with the series representation.  Returns
    (ts, values) on [H, min(KH, 1)].

    The equation is linear, so one RK4 step of length h is the map
    y -> rho y + f_i with z = alpha h, rho = 1 + z + z^2/2 + z^3/6 + z^4/24
    (> 0 for every real z) and

        f_i = -(z/6) ((1 + z + z^2/2 + z^3/4) before_i + (4 + 2z + z^2/2) half_i + after_i),

    where before_i, half_i and after_i are the delayed values at the step's
    start, midpoint and end.  An interval solves the recurrence at once as
    y_j = rho^j (y_0 + sum_{i<j} f_i rho^-(i+1)) with one ``cumsum``, in
    chunks of L steps with L |log rho| <= 1, so that no power leaves
    [1/e, e]; the powers are exp(j log1p(rho - 1)), which stay within an ulp
    or two where a running product of rho would drift by j ulps.  An interval
    costs a fixed number of array operations on its m + 1 nodes, plus a few
    per chunk.

    Each interval takes m = max(4, ceil(H / step)) steps.  ``step`` must be
    finite and positive (``DomainError``), and the K m nodes, history
    included, at most ``MAX_ODE_NODES`` (``SizeError``, before anything is
    allocated).
    """
    H, K, al = spec.H, spec.K, spec.alpha
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be finite and positive, got {step}")
    m = max(4, math.ceil(min(H / step, MAX_ODE_NODES + 1)))  # min: a tiny step must not overflow ceil
    if K * m > MAX_ODE_NODES:
        raise SizeError(f"step {step} needs more than {MAX_ODE_NODES} nodes ({K} intervals of H / step each)")
    h = H / m
    z = al * h
    log_rho = math.log1p(z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
    L = m if abs(log_rho) * m <= 1.0 else max(1, math.floor(1.0 / abs(log_rho)))
    powers = np.exp(np.arange(1, L + 1) * log_rho)  # rho^j, j = 1..L
    inverse = np.exp(np.arange(1, L + 1) * -log_rho)  # rho^-j
    scale, before_w, half_w = -z / 6.0, 1.0 + z * (1.0 + z * (0.5 + 0.25 * z)), 4.0 + z * (2.0 + 0.5 * z)
    history = np.full(m + 1, spec.level)  # kappa on [0, H], left limit at H
    y = al * H * spec.level
    # Lagrange weights for the midpoints of a grid's first, interior and last step
    first, inside, last = np.array([[5, 15, -5, 1], [-1, 9, 9, -1], [1, -5, 15, 5]]) / 16.0
    ys = [[y]]
    for interval in range(1, K):
        windows = sliding_window_view(history, 4)
        g_half = np.concatenate([[windows[0] @ first], windows @ inside, [windows[-1] @ last]])
        f = scale * (before_w * history[:-1] + half_w * g_half + history[1:])
        current = np.empty(m + 1)
        current[0] = y
        for s in range(0, m, L):
            n = min(L, m - s)
            current[s + 1 : s + n + 1] = powers[:n] * (y + np.cumsum(f[s : s + n] * inverse[:n]))
            y = current[s + n]
        history = current
        ys.append(current[1:])
    ts = np.concatenate([[H]] + [interval * H + np.arange(1, m + 1) * h for interval in range(1, K)])
    ys = np.concatenate(ys)
    keep = ts <= 1.0 + 1e-12
    return ts[keep], ys[keep]


def c_closed_forms(alpha_value: float, H: float) -> np.ndarray:
    """First ten interval constants as the delayed-exponential sum (cross-check oracle).

    c_k = -alpha sum_{j<k} (-alpha H)^j (k-1-j)^j exp((k-1-j) alpha H) / j!, with
    0^0 = 1: the method-of-steps fundamental solution of y' = alpha (y(t) - y(t - H))
    (Bellman & Cooke 1963; the "delayed exponential" of Khusainov & Shuklin 2003),
    derived apart from the recurrence of ``c_coefficients``.  It equals that
    recurrence exactly, but in floats its alternating terms cancel once alpha H > 0:
    1e-7 relative by k = 30, hence ten constants.
    """
    z = alpha_value * H
    return np.array(
        [
            -alpha_value
            * sum((-z) ** j * (k - 1 - j) ** j * math.exp((k - 1 - j) * z) / math.factorial(j) for j in range(k))
            for k in range(1, 11)
        ]
    )
