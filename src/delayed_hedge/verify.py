"""Property suites behind the ``verify`` subcommand.

Each suite sweeps a parameter grid and reduces every identity of the model to
a named check with a worst-case residual, so a run gives one line per claim:
matrix identities against dense oracles, the duality identities pathwise and
in closed form, the kernel recursion against independent oracles, and the
discretization limits.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import convergence, dual, kernel, mc, solver, toeplitz
from .errors import IntegrabilityError, SizeError
from .market import ContinuousMarket, DiscreteMarket, discretize

N_VALUES = (2, 4, 8, 16, 32)
SIGMA_HATS = (0.5, 0.8, 1.0, 1.3, 2.0)
MUS = (0.0, 0.2)
KERNEL_POINTS = tuple((H, r) for H in (0.15, 0.2, 0.35) for r in (0.5, 2.0))
PATHS_PER_POINT = 100
# Long markets the dual suite checks with no dense oracle: the stored taps, their corner,
# the equation A v = e_0 and the FFT paths only.
LARGE_DUAL_MARKETS = tuple(
    DiscreteMarket(n=n, delay=20, mu=0.1 / n, sigma=1.0 / math.sqrt(n), sigma_hat=ratio / math.sqrt(n))
    for n, ratio in ((10**4, 1.3), (10**5, 0.8))
)
LARGE_DUAL_PATHS = 8  # keeps the pathwise identity near 29 MB under tracemalloc at n = 10^5
# Markets at n = 10^6 on which log |A| is taken three ways, each O(n D) or less (``dual.log_det_routes``)
LOG_DET_MARKETS = tuple(
    DiscreteMarket(n=10**6, delay=delay, mu=1e-7, sigma=1e-3, sigma_hat=1.3e-3) for delay in (20, 200)
)
# Relative to max(|log |A||, 1).  Measured worst: 4.9e-15 at D = 20 and 6.4e-14 at D = 200, where
# (n - D) log v_0 carries v_0's rounding n times; up to 1.5e-13 over sigma_hat in {0.8, 1, 1.3, 2}e-3.
LOG_DET_ROUTES_TOL = 1e-12
RATE_SLACK = 1.5  # safety factor on constants fitted from the smallest n
LIMIT_H = 0.2  # the H of the convergence suite's two markets


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    seconds: float = 0.0  # wall time of the suite that ran the check, set by ``run``
    # the point that gave ``worst``: a market's fields or {"H", "ratio"}; None for a table-wide check
    worst_at: dict | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            # a non-finite residual is a failed check, reported as null
            "worst_residual": self.worst if math.isfinite(self.worst) else None,
            "tolerance": self.tol,
            "seconds": self.seconds,
            "worst_at": self.worst_at,
        }


def default_grid(grid_size: int = len(N_VALUES)):
    """The standard (n, D, mu, sigma_hat) sweep with sigma = 1."""
    markets = []
    for n in N_VALUES[: max(1, grid_size)]:
        delays = sorted({0, 1, 2, n // 2 - 1} & set(range(0, n)))
        for D in delays:
            for mu in MUS:
                for sh in SIGMA_HATS:
                    markets.append(DiscreteMarket(n=n, delay=D, mu=mu, sigma=1.0, sigma_hat=sh))
    return markets


def _argworst(values) -> tuple:
    """(worst, index) of ``values``: the first NaN, else the first maximum
    (Python's max drops a NaN that is not first)."""
    values = np.fromiter(values, dtype=float)
    index = int(np.argmax(values))
    return float(values[index]), index


def _worst(values) -> float:
    """The largest of ``values``, NaN if any is NaN."""
    return _argworst(values)[0]


def _kernel_point(H: float, ratio: float) -> dict:
    return {"H": float(H), "ratio": float(ratio)}


def _checks(suite: str, results, tols: dict, points=None):
    """One CheckResult per named residual: its worst value over all results,
    at ``points[i]`` when ``results[i]`` gave it (None without ``points``)."""
    checks = []
    for name, tol in tols.items():
        worst, index = _argworst(r[name] for r in results)
        at = None if points is None else points[index]
        checks.append(CheckResult(f"{suite}.{name}", worst <= tol, worst, tol, worst_at=at))
    return checks


def matrix_suite(grid_size: int = len(N_VALUES)):
    """Root, inverse, determinant, sum/trace and minor identities on the grid."""

    def point(m: DiscreteMarket):
        sol = solver.solve(m)
        a = sol.a
        q = solver.quadratic_coeffs(m)
        out = {
            "root_residual": abs(q.residual(a)) / q.scale,
            "root_margin": max(0.0, -(a + 1.0 / (m.delay + 1))),
            "sign_law": 0.0 if math.copysign(1, a) == math.copysign(1, m.sigma - m.sigma_hat) or a == 0.0 else 1.0,
        }
        if m.delay > 0:
            disc = max(q.qb * q.qb - 4 * q.qa * q.qc, 0.0)
            other = (-q.qb - math.sqrt(disc)) / (2 * q.qa)
            out["largest_root"] = max(other - a, 0.0)
        else:
            out["largest_root"] = 0.0
        matrix = sol.matrix
        A = matrix.to_dense()
        inv = toeplitz.inverse_via_v(a, m.delay, m.n)
        dense_inv = toeplitz.dense_inverse(A)
        scale = np.max(np.abs(dense_inv))
        out["inverse_vs_dense"] = float(np.max(np.abs(inv - dense_inv)) / scale)
        det = toeplitz.det_closed_form(a, m.delay, m.n)
        out["det_vs_dense"] = abs(det - toeplitz.dense_det(A)) / abs(det)
        target_sum = m.n * m.sigma_hat**2 / m.sigma**2
        out["entry_sum"] = abs(float(inv.sum()) - target_sum) / target_sum
        target_trace = m.n * (1.0 - a * m.sigma_hat**2 / m.sigma**2)
        out["trace_identity"] = abs(float(np.trace(inv)) - target_trace) / max(abs(target_trace), 1.0)
        mask = np.abs(np.subtract.outer(np.arange(m.n), np.arange(m.n))) > m.delay
        out["inverse_banded"] = float(np.max(np.abs(dense_inv[mask])) / scale) if mask.any() else 0.0
        ok = m.n > toeplitz.MINOR_ENUMERATION_LIMIT or toeplitz.check_vanishing_minors(matrix, m.delay, tol=1e-9)
        out["vanishing_minors"] = 0.0 if ok else 1.0
        return out

    grid = default_grid(grid_size)
    results = [point(m) for m in grid]
    tols = {
        "root_residual": 1e-12,
        "root_margin": 0.0,
        "sign_law": 0.5,
        "largest_root": 1e-12,
        "inverse_vs_dense": 1e-9,
        "det_vs_dense": 1e-9,
        "entry_sum": 1e-9,
        "trace_identity": 1e-9,
        "inverse_banded": 1e-10,
        "vanishing_minors": 0.5,
    }
    return _checks("matrix", results, tols, [asdict(m) for m in grid])


def dual_suite(grid_size: int = len(N_VALUES)):
    """Pathwise verification identity, entropy identity, marginal and structure.

    The grid is followed by ``LARGE_DUAL_MARKETS`` (n up to 10^5) with
    ``LARGE_DUAL_PATHS`` paths each; ``log_det_routes`` compares three routes
    to log |A| on ``LOG_DET_MARKETS`` (n = 10^6).
    """

    def point(index: int, m: DiscreteMarket, paths: int = PATHS_PER_POINT):
        dm = dual.build_dual(m)
        batch = mc.generate(m, paths, seed=1000 + index)
        residuals = dual.verification_residual(m, batch.increments)
        c_hat = dm.c_hat
        entropy = dual.relative_entropy(dm, m)
        v = dm.solution.value
        scale = max(abs(c_hat), 1.0)
        return {
            "verification_pathwise": float(np.max(np.abs(residuals))),
            "entropy_vs_constant": abs(entropy - c_hat) / scale,
            "constant_vs_value": abs(c_hat + math.log(-v)) / scale,
            "marginal": 0.0 if dual.check_marginal(dm, m, 1e-9) else 1.0,
            "delayed_martingale": 0.0 if dual.check_delayed_martingale(dm, m.delay, 1e-10) else 1.0,
        }

    def routes(m: DiscreteMarket):
        # the closed form, the corner formula on the taps, and Durbin's recursion on A's first column,
        # certified past order D + 1
        dm = dual.build_dual(m)
        sol = dm.solution
        corner = -toeplitz.corner_log_det(dm.v, dm.corner, m.n)
        column = sol.matrix.first_row
        try:
            durbin = m.n * math.log(column[0]) + mc.reflection_log_det(mc.reflection_coefficients(column))
        except (SizeError, IntegrabilityError):  # no certificate within the budget, or A not positive definite
            durbin = math.inf
        scale = max(abs(sol.log_det), 1.0)
        return {"log_det_routes": max(abs(corner - sol.log_det), abs(durbin - sol.log_det)) / scale}

    grid = default_grid(grid_size)
    results = [point(index, m) for index, m in enumerate(grid)]
    results += [point(len(grid) + i, m, LARGE_DUAL_PATHS) for i, m in enumerate(LARGE_DUAL_MARKETS)]
    tols = {
        "verification_pathwise": 1e-8,
        "entropy_vs_constant": 1e-10,
        "constant_vs_value": 1e-10,
        "marginal": 0.5,
        "delayed_martingale": 0.5,
    }
    checks = _checks("dual", results, tols, [asdict(m) for m in grid + list(LARGE_DUAL_MARKETS)])
    return checks + _checks("dual", [routes(m) for m in LOG_DET_MARKETS], {"log_det_routes": LOG_DET_ROUTES_TOL},
                            [asdict(m) for m in LOG_DET_MARKETS])


def kernel_suite(grid_size: int = len(N_VALUES)):
    """Coefficient recursion, kernel shape, integral equation, ODE oracle (``grid_size`` unused)."""

    def point(hr):
        H, ratio = hr
        spec = kernel.kernel_spec(H, 1.0, math.sqrt(ratio))
        out = {}
        closed = kernel.c_closed_forms(spec.alpha, H)
        k_max = min(10, spec.K)
        out["ck_vs_closed_forms"] = _worst(
            abs(spec.c[k] - closed[k]) / max(abs(closed[k]), 1e-30) for k in range(k_max)
        )
        ts_below = np.linspace(0.0, H, 7)[:-1]
        out["kappa_constant_below_H"] = _worst(abs(kernel.kappa(t, spec) - spec.level) for t in ts_below)
        target = spec.alpha**2 * H / (1.0 - spec.alpha * H)
        out["kappa_at_H"] = abs(kernel.kappa(H, spec) - target) / max(abs(target), 1.0)
        grid = np.linspace(H, 1.0, 200)
        out["integral_equation"] = _worst(
            abs(kernel.kappa_integral_residual(t, spec, quadsteps=2000)) for t in grid
        )
        sup_kappa = _worst(abs(kernel.kappa(t, spec)) for t in np.linspace(0, 1, 101))
        lipschitz = 2.0 * abs(spec.alpha) * max(sup_kappa, 1.0)
        gaps = [0.0]
        for k in range(2, spec.K):
            if k * H > 1.0:
                break
            for eps in (1e-4, 1e-6, 1e-8):
                gap = abs(kernel.kappa(k * H, spec) - kernel.kappa(k * H - eps, spec))
                gaps.append(gap / max(10.0 * lipschitz * eps, 1e-15))
        out["continuity_at_kH"] = _worst(gaps)
        ts, ys = kernel.kappa_ode_grid(spec, step=1e-4)
        out["ode_oracle"] = _worst(abs(kernel.kappa(t, spec) - y) for t, y in zip(ts, ys))
        return out

    results = [point(hr) for hr in KERNEL_POINTS]
    # alpha H - 1 on a 20 x 21 (H, log-ratio) mesh in one pass; x = varsigma^2 / varsigma_hat^2 per
    # log-ratio is formed as alpha forms it, in Python floats, so every cell keeps its bits
    hs, lrs = np.linspace(0.05, 1.0, 20)[:, None], np.linspace(-2.0, 2.0, 21).tolist()
    x = np.array([1.0**2 / math.exp(lr) ** 2 for lr in lrs])
    alpha_domain, index = _argworst((kernel._alpha_core(hs, x) * hs - 1.0).ravel())
    H, lr = float(hs[index // len(lrs), 0]), lrs[index % len(lrs)]
    tols = {
        "ck_vs_closed_forms": 1e-10,
        "kappa_constant_below_H": 0.0,
        "kappa_at_H": 1e-12,
        "integral_equation": 1e-8,
        "continuity_at_kH": 1.0,
        "ode_oracle": 1e-7,
    }
    checks = _checks("kernel", results, tols, [_kernel_point(*hr) for hr in KERNEL_POINTS])
    checks.append(CheckResult("kernel.alpha_H_below_one", alpha_domain < 0.0, alpha_domain, 0.0,
                              worst_at=_kernel_point(H, math.exp(2.0 * lr))))
    return checks


def convergence_suite(grid_size: int = len(N_VALUES)):
    """Discretization limits: value gap, root asymptotics, L2 rate, figures (``grid_size`` unused)."""

    def point(ratio: float):
        cm = ContinuousMarket(H=LIMIT_H, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(ratio))
        spec = kernel.spec_for_market(cm)
        lv = kernel.limit_value(cm)
        sols = {n: solver.solve(discretize(cm, n)) for n in (100, 1000, 10000)}
        gaps = [abs(sol.value - lv) for sol in sols.values()]
        scaled_err = {n: abs(n * sol.a - spec.level) for n, sol in sols.items()}
        fitted = RATE_SLACK * 100 * scaled_err[100]
        scaled_l2 = np.array(
            [n * convergence.l2_distance_to_kappa(convergence.build_bn(cm, n), spec) for n in (100, 200, 400, 800)]
        )
        med = float(np.median(scaled_l2))
        t, shifted, col = convergence.figure1_data(cm, ns=[1000], grid=500).columns.T
        tail = shifted[t >= cm.H]
        signs_ok = bool(np.all(tail <= 0) if ratio < 1.0 else np.all(tail >= 0))
        return {
            # a gap that does not fall with n fails the check, whatever its size
            "limit_gap_at_1e4": gaps[-1] if gaps[0] > gaps[1] > gaps[2] else math.inf,
            "an_rate_fitted_C": _worst(scaled_err[n] * n / fitted for n in (1000, 10000)),
            "l2_rate_factor": _worst((float(np.max(scaled_l2)) / med, med / float(np.min(scaled_l2)))),
            "fig1_sup_gap": float(np.max(np.abs(col - shifted)) / np.max(np.abs(shifted))),
            "fig1_signs": 0.0 if signs_ok else 1.0,
        }

    h_grid = [0.01, 0.1, 0.2, 0.5, 1.0]
    lr_grid = [round(x, 10) for x in np.arange(-2.0, 2.01, 0.5)]
    rows = convergence.figure2_data(h_grid, lr_grid).columns
    mono_ok = True
    for H in h_grid:
        lr, u = rows[rows[:, 0] == H, 1:].T
        mono_ok &= bool(np.all(np.diff(u[lr >= 0]) >= -1e-14) and np.all(np.diff(u[lr <= 0]) <= 1e-14))
    u_small = kernel.limit_value(ContinuousMarket(H=0.01, theta=0.0, varsigma=1.0, varsigma_hat=math.e))
    fig2 = {
        "fig2_equal_vols": _worst(np.abs(rows[rows[:, 1] == 0.0, 2] + 1.0)),
        "fig2_monotone": 0.0 if mono_ok else 1.0,
        "fig2_small_H": abs(u_small),
    }
    limit_tols = {"limit_gap_at_1e4": 1e-2, "an_rate_fitted_C": 1.0, "l2_rate_factor": 3.0,
                  "fig1_sup_gap": 0.05, "fig1_signs": 0.5}
    fig2_tols = {"fig2_equal_vols": 1e-12, "fig2_monotone": 0.5, "fig2_small_H": 0.05}
    ratios = (0.5, 2.0)
    return (_checks("convergence", [point(ratio) for ratio in ratios], limit_tols,
                    [_kernel_point(LIMIT_H, ratio) for ratio in ratios])
            + _checks("convergence", [fig2], fig2_tols))


SUITES = {
    "matrix": matrix_suite,
    "dual": dual_suite,
    "kernel": kernel_suite,
    "convergence": convergence_suite,
}


def run(suite: str = "all", grid_size: int = len(N_VALUES)):
    """Run one suite (or all); returns (all_passed, [CheckResult]), each check timed with its suite."""
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        start = time.perf_counter()
        results = SUITES[name](grid_size)
        seconds = time.perf_counter() - start
        checks += [replace(check, seconds=seconds) for check in results]
    return all(c.passed for c in checks), checks
