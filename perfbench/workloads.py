"""Seeded inputs and one round of each benchmark workload.

A round runs every op of a workload once and checks every output against the
oracle and tolerance ``delayed_hedge.verify`` uses for it.  Sizes are fixed
per workload so that every seed does the same amount of work; the seed draws
the market parameters, the (H, ratio) points and the path seeds.

Workloads and why each was chosen:

* ``paths``: four long-horizon markets (n = 256 .. 2048, D from 1 to n/10,
  16 to 1000 paths, sigma_hat/sigma on both sides of 1) run through the Monte
  Carlo and pathwise duality layers.  O(P n^2) path evaluation and dense
  n x n arrays dominate.
* ``grid``: the 170-market (n, D) grid of ``verify.default_grid`` (n = 2..32)
  with seeded sigma_hat and mu, checked against the dense oracles.  Per-call
  overhead and repeated ``solve_a`` dominate.
* ``kernel``: eight (H, ratio) points, H down to 0.02 (K = 50 intervals).
  Scalar ``_piece`` evaluation under Simpson quadrature dominates; no
  discrete-path code runs.
* ``convergence``: the discretization-limit tables of two seeded markets (n up
  to 10^6 for the value, 10^4 for the L2 distance) and both figure tables,
  whose CSV rows must match the committed ``out/*.csv`` byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from delayed_hedge import convergence, dual, kernel, mc, solver, toeplitz
from delayed_hedge.market import ContinuousMarket, DiscreteMarket, discretize

# (n, D, paths): D spans 1 .. n/10; P * n^2 stays within a factor 1.6 across markets.
PATHS_SHAPES = ((256, 1, 1000), (640, 64, 200), (1024, 20, 100), (2048, 3, 16))
GRID_NS = (2, 4, 8, 16, 32)
GRID_PATHS = 100
KERNEL_HS = (0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8)
KERNEL_T_POINTS = 200
KERNEL_QUADSTEPS = 2000
KERNEL_ODE_STEP = 1e-4
LIMIT_H = 0.2
LIMIT_NS = (100, 1_000, 10_000, 100_000, 1_000_000)
L2_NS = (100, 200, 400, 800, 2_500, 10_000)
L2_RATE_NS = 4  # the first four L2_NS are the ladder verify's rate factor uses
FIG1 = dict(ns=[100, 1000], grid=500)
FIG2_H = [round(0.02 * i, 10) for i in range(1, 51)]
FIG2_LOGRATIO = [round(-2.0 + 0.1 * i, 10) for i in range(41)]
# SHA-256 of the non-'#' lines of each committed out/*.csv (scripts/make_figures.py)
EXPECTED_CSV = json.loads(Path(__file__).with_name("expected_csv.json").read_text())


class Checks:
    """Counts output checks; a check passes when its residual is <= tol (NaN fails)."""

    def __init__(self):
        self.by_name: dict[str, dict] = {}

    def add(self, name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        entry = self.by_name.setdefault(name, {"attempted": 0, "failed": 0, "worst": 0.0, "tol": tol})
        entry["attempted"] += 1
        if not residual <= tol:
            entry["failed"] += 1
        if not residual <= entry["worst"]:
            entry["worst"] = residual

    def flag(self, name: str, ok: bool) -> None:
        self.add(name, 0.0 if ok else 1.0, 0.5)

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.by_name.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.by_name.values())


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _side_ratio(rng, index: int, below: tuple, above: tuple) -> float:
    """Alternate below/above 1 by position so every seed covers both sides."""
    return _log_uniform(rng, *(below if index % 2 == 0 else above))


def _path_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketItem:
    market: DiscreteMarket
    paths: int
    path_seed: int


@dataclass(frozen=True)
class KernelItem:
    H: float
    ratio: float


@dataclass(frozen=True)
class TableItem:
    kind: str  # "limit", "l2", "fig1" or "fig2"
    ratio: float = 1.0
    theta: float = 0.0


def paths_inputs(seed: int) -> tuple:
    rng = _rng("paths", seed)
    items = []
    for i, (n, D, count) in enumerate(PATHS_SHAPES):
        sigma = 1.0 / math.sqrt(n)
        ratio = _side_ratio(rng, i, (0.6, 0.9), (1.1, 1.6))
        theta = float(rng.uniform(-0.5, 0.5))
        m = DiscreteMarket(n=n, delay=D, mu=theta / n, sigma=sigma, sigma_hat=sigma * ratio)
        items.append(MarketItem(m, count, _path_seed(rng)))
    return tuple(items)


def grid_inputs(seed: int) -> tuple:
    """verify.default_grid's (n, D) structure; sigma_hat = 1 plus two seeded
    values on each side of 1, mu = 0 plus one seeded drift."""
    rng = _rng("grid", seed)
    sigma_hats = (1.0,) + tuple(_side_ratio(rng, i, (0.5, 0.95), (1.05, 2.0)) for i in range(4))
    mus = (0.0, float(rng.uniform(0.05, 0.3)))
    items = []
    for n in GRID_NS:
        for D in sorted({0, 1, 2, n // 2 - 1} & set(range(n))):
            for mu in mus:
                for sh in sigma_hats:
                    m = DiscreteMarket(n=n, delay=D, mu=mu, sigma=1.0, sigma_hat=sh)
                    items.append(MarketItem(m, GRID_PATHS, _path_seed(rng)))
    return tuple(items)


def kernel_inputs(seed: int) -> tuple:
    rng = _rng("kernel", seed)
    return tuple(KernelItem(H, _side_ratio(rng, i, (0.25, 0.8), (1.25, 4.0))) for i, H in enumerate(KERNEL_HS))


def convergence_inputs(seed: int) -> tuple:
    rng = _rng("convergence", seed)
    items = []
    for i in range(2):
        ratio = _side_ratio(rng, i, (0.4, 0.7), (1.5, 2.5))
        items.append(TableItem("limit", ratio, float(rng.uniform(-0.5, 0.5))))
        items.append(TableItem("l2", ratio))
    items += [TableItem("fig1", 0.5), TableItem("fig1", 2.0), TableItem("fig2")]
    return tuple(items)


# ---------------------------------------------------------------------------
# Ops: one market, one kernel point, one table
# ---------------------------------------------------------------------------

def market_op(tracer, checks: Checks, item: MarketItem, dense_oracles: bool) -> None:
    """Solve one market, simulate its paths and check every output."""
    call = tracer.call
    m, n, D = item.market, item.market.n, item.market.delay
    sol = call("solver.solve", solver.solve, m)
    w = call("solver.strategy", solver.strategy, m)
    u = call("solver.value", solver.value, m)

    batch = call("mc.generate", mc.generate, m, item.paths, item.path_seed)
    x = batch.increments
    gammas, _ = call("solver.evaluate_paths", solver.evaluate_paths, w, m, x)
    tracer.count("solver.evaluate_paths.path_steps", x.size)
    # kernel lags 1..D are exact zeros, so the first D+1 holdings are the Merton ratio
    checks.add("solver.delayed_holdings", np.max(np.abs(gammas[:, : D + 1] - w.merton)), 0.0)
    report = call("mc.estimate_utility", mc.estimate_utility, batch, w, m)
    tracer.count("mc.estimate_utility.ess", report.ess)
    tracer.count("mc.estimate_utility.paths", batch.count)
    analytic_error = math.inf if report.analytic is None else abs(report.analytic - u) / abs(u)
    checks.add("mc.analytic_vs_value", analytic_error, 1e-10)

    inv = call("toeplitz.inverse_via_v", toeplitz.inverse_via_v, sol.a, D, n)
    tracer.count("toeplitz.inverse_via_v.computed_mb", n * n * 8 / 1e6)
    ratio2 = m.sigma_hat**2 / m.sigma**2
    checks.add("matrix.entry_sum", abs(float(inv.sum()) - n * ratio2) / (n * ratio2), 1e-9)
    target_trace = n * (1.0 - sol.a * ratio2)
    checks.add("matrix.trace_identity", abs(float(np.trace(inv)) - target_trace) / max(abs(target_trace), 1.0), 1e-9)
    off_band = max((float(np.max(np.abs(np.diagonal(inv, k)))) for k in range(D + 1, n)), default=0.0)
    checks.add("matrix.inverse_banded", off_band / float(np.max(np.abs(inv))), 1e-10)
    if dense_oracles:
        A = call("solver.hedge_matrix", solver.hedge_matrix, m)
        dense_a = call("toeplitz.SymToeplitz.to_dense", A.to_dense)
        dense_inv = call("toeplitz.dense_inverse", toeplitz.dense_inverse, dense_a)
        checks.add("matrix.inverse_vs_dense", np.max(np.abs(inv - dense_inv)) / np.max(np.abs(dense_inv)), 1e-9)
        det = call("toeplitz.det_closed_form", toeplitz.det_closed_form, sol.a, D, n)
        dense_det = call("toeplitz.dense_det", toeplitz.dense_det, dense_a)
        checks.add("matrix.det_vs_dense", abs(det - dense_det) / abs(det), 1e-9)
        if n <= toeplitz.MINOR_ENUMERATION_LIMIT:
            ok = call("toeplitz.check_vanishing_minors", toeplitz.check_vanishing_minors, A, D, tol=1e-9)
            checks.flag("matrix.vanishing_minors", ok)

    dm = call("dual.build_dual", dual.build_dual, m)
    entropy = call("dual.relative_entropy", dual.relative_entropy, dm, m)
    scale = max(abs(dm.c_hat), 1.0)
    checks.add("dual.entropy_vs_constant", abs(entropy - dm.c_hat) / scale, 1e-10)
    checks.add("dual.constant_vs_value", abs(dm.c_hat + math.log(-sol.value)) / scale, 1e-10)
    checks.flag("dual.marginal", call("dual.check_marginal", dual.check_marginal, dm, m, 1e-9))
    checks.flag(
        "dual.delayed_martingale",
        call("dual.check_delayed_martingale", dual.check_delayed_martingale, dm, D, 1e-10),
    )
    residuals = call("dual.verification_residual", dual.verification_residual, m, x)
    tracer.count("dual.verification_residual.path_steps", x.size)
    checks.add("dual.verification_pathwise", np.max(np.abs(residuals)), 1e-8)


def kernel_op(tracer, checks: Checks, item: KernelItem, t_points: int = KERNEL_T_POINTS,
              ode_step: float = KERNEL_ODE_STEP) -> None:
    """One (H, ratio) point: coefficients, kernel shape, integral equation, ODE oracle."""
    call = tracer.call
    H = item.H
    spec = call("kernel.kernel_spec", kernel.kernel_spec, H, 1.0, math.sqrt(item.ratio))

    def kappa(t):
        return call("kernel.kappa", kernel.kappa, float(t), spec)

    closed = call("kernel.c_closed_forms", kernel.c_closed_forms, spec.alpha, H)
    checks.add(
        "kernel.ck_vs_closed_forms",
        max(abs(spec.c[k] - closed[k]) / max(abs(closed[k]), 1e-30) for k in range(min(10, spec.K))),
        1e-10,
    )
    checks.add(
        "kernel.kappa_constant_below_H",
        max(abs(kappa(t) - spec.level) for t in np.linspace(0.0, H, 7)[:-1]),
        0.0,
    )
    target = spec.alpha**2 * H / (1.0 - spec.alpha * H)
    checks.add("kernel.kappa_at_H", abs(kappa(H) - target) / max(abs(target), 1.0), 1e-12)

    residual = max(
        abs(call("kernel.kappa_integral_residual", kernel.kappa_integral_residual, float(t), spec,
                 quadsteps=KERNEL_QUADSTEPS))
        for t in np.linspace(H, 1.0, t_points)
    )
    tracer.count("kernel.kappa_integral_residual.points", t_points)
    checks.add("kernel.integral_equation", residual, 1e-8)

    sup_kappa = max(abs(kappa(t)) for t in np.linspace(0, 1, 101))
    lipschitz = 2.0 * abs(spec.alpha) * max(sup_kappa, 1.0)
    worst = 0.0
    for k in range(2, spec.K):
        if k * H > 1.0:
            break
        for eps in (1e-4, 1e-6, 1e-8):
            gap = abs(kappa(k * H) - kappa(k * H - eps))
            worst = max(worst, gap / max(10.0 * lipschitz * eps, 1e-15))
    checks.add("kernel.continuity_at_kH", worst, 1.0)

    ts, ys = call("kernel.kappa_ode_grid", kernel.kappa_ode_grid, spec, step=ode_step)
    checks.add("kernel.ode_oracle", max(abs(kappa(t) - y) for t, y in zip(ts, ys)), 1e-7)


def _render_csv(table, metadata=None) -> str:
    stream = io.StringIO()
    convergence.write_csv(table, stream, metadata=metadata)
    return stream.getvalue()


def _check_csv(tracer, checks: Checks, table, name: str, metadata: dict) -> None:
    text = tracer.call("convergence.write_csv", _render_csv, table, metadata)
    rows = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
    digest = hashlib.sha256("".join(rows).encode()).hexdigest()
    checks.flag(f"convergence.csv_matches_{name}", digest == EXPECTED_CSV[name]["sha256"])


def table_op(tracer, checks: Checks, item: TableItem, ns=None) -> None:
    """One convergence table: the limit or L2 ladder of one market, or a figure.

    ``ns`` replaces a ladder's sizes for the warm-up, which checks nothing.
    """
    call = tracer.call
    full = ns is None
    cm = ContinuousMarket(H=LIMIT_H, theta=item.theta, varsigma=1.0, varsigma_hat=math.sqrt(item.ratio))
    if item.kind == "limit":
        ns = LIMIT_NS if full else ns
        lv = call("kernel.limit_value", kernel.limit_value, cm)
        spec = call("kernel.kernel_spec", kernel.kernel_spec, cm.H, cm.varsigma, cm.varsigma_hat)
        target = spec.alpha / (1.0 - spec.alpha * cm.H)
        gaps, scaled_err = [], []
        for n in ns:
            m = call("market.discretize", discretize, cm, n, probe_key=n)
            sol = call("solver.solve", solver.solve, m, probe_key=n)
            u = call("solver.value", solver.value, m, probe_key=n)
            gaps.append(abs(u - lv))
            scaled_err.append(abs(n * sol.a - target))
        if full:
            decreasing = all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))
            checks.add("convergence.limit_gap_at_1e4", gaps[ns.index(10_000)] if decreasing else math.inf, 1e-2)
            fitted = 1.5 * ns[0] * scaled_err[0]  # verify.RATE_SLACK * n0 * err(n0)
            rate = max(e * n / fitted for n, e in zip(ns[1:], scaled_err[1:]))
            checks.add("convergence.an_rate_fitted_C", rate, 1.0)
    elif item.kind == "l2":
        ns = L2_NS if full else ns
        spec = call("kernel.kernel_spec", kernel.kernel_spec, cm.H, cm.varsigma, cm.varsigma_hat)
        dists = []
        for n in ns:
            f = call("convergence.build_bn", convergence.build_bn, cm, n, probe_key=n)
            dists.append(call("convergence.l2_distance_to_kappa", convergence.l2_distance_to_kappa, f, spec,
                              probe_key=n))
            tracer.count("convergence.l2_distance_to_kappa.steps", n)
        if full:
            scaled = [n * d for n, d in zip(ns[:L2_RATE_NS], dists)]
            med = float(np.median(scaled))
            checks.add("convergence.l2_rate_factor", max(max(scaled) / med, med / min(scaled)), 3.0)
            # the squared distance must fall at least like 1/n between every ladder step
            orders = [math.log(d0 / d1) / math.log(n1 / n0) for n0, n1, d0, d1 in zip(ns, ns[1:], dists, dists[1:])]
            checks.add("convergence.l2_min_rate", 1.0 - min(orders), 0.0)
    elif item.kind == "fig1":
        table = call("convergence.figure1_data", convergence.figure1_data, cm, **FIG1)
        _check_csv(tracer, checks, table, f"fig1_ratio{item.ratio:g}.csv",
                   {"H": LIMIT_H, "ratio": item.ratio, "ns": "100,1000"})
        t, shifted, col = table.columns[:, 0], table.columns[:, 1], table.columns[:, 3]
        checks.add("convergence.fig1_sup_gap", np.max(np.abs(col - shifted)) / np.max(np.abs(shifted)), 0.05)
        tail = shifted[t >= cm.H]
        checks.flag("convergence.fig1_signs", bool(np.all(tail <= 0) if item.ratio < 1.0 else np.all(tail >= 0)))
    else:
        table = call("convergence.figure2_data", convergence.figure2_data, FIG2_H, FIG2_LOGRATIO)
        _check_csv(tracer, checks, table, "fig2.csv", {"h_grid": "0.02:1.0:0.02", "logratio_grid": "-2:2:0.1"})
        rows = table.columns
        checks.add("convergence.fig2_equal_vols", max(abs(r[2] + 1.0) for r in rows if r[1] == 0.0), 1e-12)
        mono = True
        for H in FIG2_H:
            sub = rows[rows[:, 0] == H]
            u, lr = sub[:, 2], sub[:, 1]
            mono &= bool(np.all(np.diff(u[lr >= 0]) >= -1e-14) and np.all(np.diff(u[lr <= 0]) <= 1e-14))
        checks.flag("convergence.fig2_monotone", mono)
        small = ContinuousMarket(H=0.01, theta=0.0, varsigma=1.0, varsigma_hat=math.e)
        checks.add("convergence.fig2_small_H", abs(call("kernel.limit_value", kernel.limit_value, small)), 0.05)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: object  # seed -> tuple of items
    op: object  # (tracer, checks, item) -> None
    warm_up: object  # (tracer, items) -> None: one small call into each layer used


def _warm_markets(tracer, items, dense: bool) -> None:
    first = items[0]
    market_op(tracer, Checks(), MarketItem(first.market, 8, first.path_seed), dense_oracles=dense)


def _warm_kernel(tracer, items) -> None:
    last = items[-1]
    kernel_op(tracer, Checks(), last, t_points=1, ode_step=last.H / 4)


def _warm_convergence(tracer, items) -> None:
    for item in items:
        if item.kind in ("limit", "l2"):
            table_op(tracer, Checks(), item, ns=(10,))
    call = tracer.call
    table = call("convergence.figure1_data", convergence.figure1_data,
                 ContinuousMarket(H=LIMIT_H, theta=0.0, varsigma=1.0, varsigma_hat=1.0), ns=[10], grid=10)
    call("convergence.figure2_data", convergence.figure2_data, [0.5], [0.0])
    call("convergence.write_csv", _render_csv, table)


WORKLOADS = {
    "paths": Workload(
        paths_inputs,
        lambda tracer, checks, item: market_op(tracer, checks, item, dense_oracles=False),
        lambda tracer, items: _warm_markets(tracer, items, dense=False),
    ),
    "grid": Workload(
        grid_inputs,
        lambda tracer, checks, item: market_op(tracer, checks, item, dense_oracles=True),
        lambda tracer, items: _warm_markets(tracer, items, dense=True),
    ),
    "kernel": Workload(kernel_inputs, kernel_op, _warm_kernel),
    "convergence": Workload(convergence_inputs, table_op, _warm_convergence),
}


def run_round(name: str, tracer, checks: Checks, items) -> None:
    """Every op of the workload once, each timed as one op."""
    op = WORKLOADS[name].op
    for item in items:
        with tracer.op(f"op.{name}"):
            op(tracer, checks, item)
