"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math

import numpy as np

from delayed_hedge import (
    ContinuousMarket,
    DiscreteMarket,
    brute_force_optimum,
    discretize,
    hedge_matrix,
    solve_a,
    strategy,
    value,
)
from delayed_hedge.dual import build_dual, relative_entropy, verification_residual
from delayed_hedge.kernel import (
    c_closed_forms,
    kappa,
    kappa_integral_residual,
    kappa_ode_grid,
    kernel_spec,
    limit_value,
    spec_for_market,
)
from delayed_hedge.convergence import build_bn, figure1_data, figure2_data, l2_distance_to_kappa
from delayed_hedge.mc import analytic_quadratic_utility, estimate_utility, generate, strategy_toeplitz_form
from delayed_hedge.solver import StrategyWeights, quadratic_coeffs
from delayed_hedge.toeplitz import (
    SymToeplitz,
    check_vanishing_minors,
    dense_det,
    dense_inverse,
    det_closed_form,
    inverse_via_v,
)

N_VALUES = (2, 4, 8, 16, 32)
SIGMA_HATS = (0.5, 0.8, 1.0, 1.3, 2.0)
MUS = (0.0, 0.2)


def grid():
    for n in N_VALUES:
        for delay in sorted({0, 1, 2, n // 2 - 1} & set(range(n))):
            for mu in MUS:
                for sh in SIGMA_HATS:
                    yield DiscreteMarket(n=n, delay=delay, mu=mu, sigma=1.0, sigma_hat=sh)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_root_consistency():
    worst = 0.0
    for m in grid():
        a = solve_a(m)
        q = quadratic_coeffs(m)
        worst = max(worst, abs(q.residual(a)) / q.scale)
        assert a > -1.0 / (m.delay + 1)
        if m.sigma_hat != m.sigma:
            assert math.copysign(1.0, a) == math.copysign(1.0, m.sigma - m.sigma_hat)
        else:
            assert a == 0.0
    report(1, worst < 1e-12, f"root residual/sign/bound over grid, worst residual {worst:.2e}")


def test_criterion_2_matrix_identities():
    worst = {"inv": 0.0, "det": 0.0, "sum": 0.0, "band": 0.0, "trace": 0.0}
    minors_ok = True
    for m in grid():
        a = solve_a(m)
        n, D = m.n, m.delay
        A = hedge_matrix(m).to_dense()
        inv = inverse_via_v(a, D, n)
        dense = dense_inverse(A)
        scale = np.max(np.abs(dense))
        worst["inv"] = max(worst["inv"], float(np.max(np.abs(inv - dense))) / scale)
        det = det_closed_form(a, D, n)
        worst["det"] = max(worst["det"], abs(det - dense_det(A)) / abs(det))
        target = n * m.sigma_hat**2 / m.sigma**2
        worst["sum"] = max(worst["sum"], abs(float(inv.sum()) - target) / target)
        trace_target = n * (1.0 - a * m.sigma_hat**2 / m.sigma**2)
        worst["trace"] = max(
            worst["trace"], abs(float(np.trace(inv)) - trace_target) / max(abs(trace_target), 1.0)
        )
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > D
        if mask.any():
            worst["band"] = max(worst["band"], float(np.max(np.abs(inv[mask]))) / scale)
        if n <= 12:
            minors_ok &= check_vanishing_minors(hedge_matrix(m), D, tol=1e-9)
    ok = (
        worst["inv"] < 1e-9
        and worst["det"] < 1e-9
        and worst["sum"] < 1e-9
        and worst["trace"] < 1e-9
        and worst["band"] < 1e-10
        and minors_ok
    )
    report(2, ok, f"matrix identities, worst {worst}, minors_ok={minors_ok}")


def test_criterion_3_duality():
    worst_path, worst_entropy = 0.0, 0.0
    for index, m in enumerate(grid()):
        dm = build_dual(m)
        batch = generate(m, 100, seed=5000 + index)
        residuals = verification_residual(m, batch.increments)
        worst_path = max(worst_path, float(np.max(np.abs(residuals))))
        scale = max(abs(dm.c_hat), 1.0)
        worst_entropy = max(
            worst_entropy,
            abs(relative_entropy(dm, m) - dm.c_hat) / scale,
            abs(dm.c_hat + math.log(-value(m))) / scale,
        )
    ok = worst_path < 1e-8 and worst_entropy < 1e-10
    report(3, ok, f"pathwise residual {worst_path:.2e}, entropy identity {worst_entropy:.2e}")


def test_criterion_4_value_formula_oracle():
    worst = 0.0
    for m in grid():
        column, linear, constant = strategy_toeplitz_form(strategy(m), m)
        got = analytic_quadratic_utility(SymToeplitz(column).to_dense(), linear, constant, m)
        worst = max(worst, abs(got - value(m)) / abs(value(m)))
    report(4, worst < 1e-10, f"Gaussian expectation vs value formula, worst rel {worst:.2e}")


def test_criterion_5_small_instance_optimality():
    worst = 0.0
    for n, delay in ((2, 1), (3, 2)):
        for mu in (0.0, 0.2):
            for sh in (0.7, 1.5):
                m = DiscreteMarket(n=n, delay=delay, mu=mu, sigma=1.0, sigma_hat=sh)
                got, _ = brute_force_optimum(m)
                worst = max(worst, abs(got - value(m)))
    report(5, worst < 1e-6, f"brute-force optimum vs formula, worst abs {worst:.2e}")


def test_criterion_6_monte_carlo():
    m = DiscreteMarket(n=5, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)
    batch = generate(m, 100000, seed=42)
    base = strategy(m)
    opt = value(m)
    report_opt = estimate_utility(batch, base, m)
    z = abs(report_opt.empirical_mean - opt) / report_opt.std_error
    sub_ok = True
    for scale in (0.5, 1.5):
        w = StrategyWeights(merton=base.merton, kernel=scale * base.kernel, static_coeff=base.static_coeff)
        rep = estimate_utility(batch, w, m)
        sub_ok &= rep.empirical_mean <= opt + 4 * rep.std_error
    report(6, z <= 4.0 and sub_ok, f"MC z-score {z:.2f} (<=4), perturbed suboptimal {sub_ok}")


def test_criterion_7_kernel_suite():
    worst = {"ck": 0.0, "below": 0.0, "atH": 0.0, "integral": 0.0, "ode": 0.0}
    continuous = True
    for H in (0.15, 0.2, 0.35):
        for ratio in (0.5, 2.0):
            spec = kernel_spec(H, 1.0, math.sqrt(ratio))
            closed = c_closed_forms(spec.alpha, H)
            for k in range(min(10, spec.K)):
                worst["ck"] = max(worst["ck"], abs(spec.c[k] - closed[k]) / max(abs(closed[k]), 1e-30))
            for t in np.linspace(0.0, H, 9)[:-1]:
                worst["below"] = max(worst["below"], abs(kappa(float(t), spec) - spec.level))
            target = spec.alpha**2 * H / (1.0 - spec.alpha * H)
            worst["atH"] = max(worst["atH"], abs(kappa(H, spec) - target) / max(abs(target), 1.0))
            for t in np.linspace(H, 1.0, 200):
                worst["integral"] = max(
                    worst["integral"], abs(kappa_integral_residual(float(t), spec, quadsteps=2000))
                )
            for k in range(2, spec.K):
                if k * H > 1.0:
                    break
                gaps = [
                    abs(kappa(k * H, spec) - kappa(k * H - eps, spec)) for eps in (1e-4, 1e-6, 1e-8)
                ]
                continuous &= gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-6
            ts, ys = kappa_ode_grid(spec, step=1e-4)
            worst["ode"] = max(
                worst["ode"], max(abs(kappa(float(t), spec) - y) for t, y in zip(ts, ys))
            )
    ok = (
        worst["ck"] < 1e-10
        and worst["below"] == 0.0
        and worst["atH"] < 1e-12
        and worst["integral"] < 1e-8
        and continuous
        and worst["ode"] < 1e-7
    )
    report(7, ok, f"kernel suite, worst {worst}, continuous={continuous}")


def test_criterion_8_discretization_limit():
    ok = True
    detail = []
    for vsh in (1.0 / math.sqrt(2.0), math.sqrt(2.0)):
        c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=vsh)
        lv = limit_value(c)
        gaps = [abs(value(discretize(c, n)) - lv) for n in (100, 1000, 10000)]
        ok &= gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2
        spec = spec_for_market(c)
        target = spec.alpha / (1.0 - spec.alpha * c.H)
        err = {n: abs(n * solve_a(discretize(c, n)) - target) for n in (100, 1000, 10000)}
        fitted = 1.5 * 100 * err[100]  # one-point fit with rate-safety factor
        ok &= err[1000] < fitted / 1000 and err[10000] < fitted / 10000
        detail.append(f"vsh={vsh:.3f} gap@1e4={gaps[2]:.2e} n*a_n err@1e4={err[10000]:.2e}")
    report(8, ok, "; ".join(detail))


def test_criterion_9_l2_rate():
    ok = True
    detail = []
    for ratio in (0.5, 2.0):
        c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(ratio))
        spec = spec_for_market(c)
        scaled = [n * l2_distance_to_kappa(build_bn(c, n), spec) for n in (100, 200, 400, 800)]
        med = float(np.median(scaled))
        ok &= max(scaled) <= 3.0 * med and min(scaled) >= med / 3.0
        detail.append(f"ratio={ratio} n*dist2 in [{min(scaled):.4f}, {max(scaled):.4f}] med {med:.4f}")
    report(9, ok, "; ".join(detail))


def test_criterion_10_figures():
    ok = True
    detail = []
    for ratio in (0.5, 2.0):
        c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(ratio))
        table = figure1_data(c, ns=[1000], grid=500)
        t, shifted, col = table.columns[:, 0], table.columns[:, 1], table.columns[:, 2]
        sup = float(np.max(np.abs(shifted)))
        gap = float(np.max(np.abs(col - shifted)))
        ok &= gap < 0.05 * sup
        tail = shifted[t >= 0.2]
        ok &= bool(np.all(tail <= 0.0) if ratio < 1 else np.all(tail >= 0.0))
        detail.append(f"fig1 ratio={ratio} gap {100 * gap / sup:.2f}% of sup")

    table = figure2_data([0.01, 0.1, 0.2, 0.5, 1.0], [round(-2.0 + 0.25 * i, 10) for i in range(17)])
    rows = table.columns
    ok &= bool(np.all(np.abs(rows[rows[:, 1] == 0.0][:, 2] + 1.0) < 1e-12))
    for H in (0.01, 0.1, 0.2, 0.5, 1.0):
        sub = rows[rows[:, 0] == H]
        u, lr = sub[:, 2], sub[:, 1]
        ok &= bool(np.all(np.diff(u[lr >= 0]) >= -1e-14))            # toward 0 as ratio grows
        ok &= bool(np.all(np.diff(u[lr <= 0]) <= 1e-14))             # toward 0 as ratio shrinks
    u_small = limit_value(ContinuousMarket(H=0.01, theta=0.0, varsigma=1.0, varsigma_hat=math.e))
    ok &= abs(u_small) < 0.05
    detail.append(f"fig2 equal-vol rows at -1, monotone, |U(0.01, 1)|={abs(u_small):.2e}")
    report(10, ok, "; ".join(detail))
