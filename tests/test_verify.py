"""Reductions behind the ``verify`` checks."""

import json
import math
from dataclasses import asdict

import numpy as np

from delayed_hedge import DiscreteMarket, convergence, kernel, mc, toeplitz, verify


def test_a_nan_after_the_first_point_fails_its_check():
    # Python's max keeps a NaN only when it comes first; here it would report 1e-12
    (check,) = verify._checks("s", [{"r": 0.0}, {"r": math.nan}, {"r": 1e-12}], {"r": 1e-9})
    assert not check.passed
    assert math.isnan(check.worst)


def test_worst_at_names_the_point_of_the_first_nan_else_of_the_first_maximum():
    points = ["p0", "p1", "p2", "p3"]
    results = [{"r": 0.0, "s": 1.0}, {"r": 2.0, "s": 3.0}, {"r": math.nan, "s": 3.0}, {"r": math.nan, "s": 0.0}]
    r, s = verify._checks("x", results, {"r": 1e-9, "s": 5.0}, points)
    assert (r.worst_at, s.worst_at) == ("p2", "p1")
    assert (r.passed, s.passed) == (False, True)
    # without points every check names none
    assert verify._checks("x", results, {"r": 1e-9})[0].worst_at is None


def test_matrix_suite_names_the_market_of_each_worst_residual(monkeypatch):
    det = toeplitz.det_closed_form

    def wrong_at_n4_d1(a, delay, n):
        # relative error a / (1 + a): largest at the largest root, sigma_hat = 0.5 (mu = 0 comes first)
        return det(a, delay, n) * (1.0 + abs(a) if (n, delay) == (4, 1) else 1.0)

    monkeypatch.setattr(toeplitz, "det_closed_form", wrong_at_n4_d1)
    grid = [asdict(m) for m in verify.default_grid(2)]
    checks = {c.name: c for c in verify.matrix_suite(grid_size=2)}
    for check in checks.values():
        assert check.worst_at in grid
        doc = json.loads(json.dumps(check.to_json()))
        assert doc["worst_at"] == check.worst_at
    failed = checks["matrix.det_vs_dense"]
    assert not failed.passed
    assert failed.worst_at == {"n": 4, "delay": 1, "mu": 0.0, "sigma": 1.0, "sigma_hat": 0.5}


def test_a_nan_mid_grid_in_the_ode_oracle_fails_the_kernel_suite(monkeypatch):
    ode_grid = kernel.kappa_ode_grid

    def with_nan(spec, step):
        ts, ys = ode_grid(spec, step=step)
        ys = np.array(ys, dtype=float)
        ys[len(ys) // 2] = math.nan
        return ts, ys

    monkeypatch.setattr(kernel, "kappa_ode_grid", with_nan)
    checks = {c.name: c for c in verify.kernel_suite()}
    assert not checks["kernel.ode_oracle"].passed
    assert math.isnan(checks["kernel.ode_oracle"].worst)
    assert all(c.passed for name, c in checks.items() if name != "kernel.ode_oracle")


def test_a_nan_l2_distance_for_the_second_market_fails_only_the_l2_rate(monkeypatch):
    l2 = convergence.l2_distance_to_kappa

    def nan_for_ratio_2(values, spec):
        return math.nan if spec.alpha < 0 else l2(values, spec)  # alpha < 0 for ratio 2 alone

    monkeypatch.setattr(convergence, "l2_distance_to_kappa", nan_for_ratio_2)
    checks = {c.name: c for c in verify.convergence_suite()}
    assert not checks["convergence.l2_rate_factor"].passed
    assert math.isnan(checks["convergence.l2_rate_factor"].worst)
    assert checks["convergence.l2_rate_factor"].worst_at == {"H": 0.2, "ratio": 2.0}
    assert all(c.passed for name, c in checks.items() if name != "convergence.l2_rate_factor")


def test_alpha_domain_sweep_keeps_the_worst_point_of_the_scalar_alpha_calls():
    # the 420 scalar calls the sweep made before it became one mesh pass
    domain = [(float(H), float(lr)) for H in np.linspace(0.05, 1.0, 20) for lr in np.linspace(-2.0, 2.0, 21)]
    values = [kernel.alpha(H, 1.0, math.exp(lr)) * H - 1.0 for H, lr in domain]
    index = int(np.argmax(values))
    (check,) = [c for c in verify.kernel_suite() if c.name == "kernel.alpha_H_below_one"]
    assert check.worst == values[index] == float.fromhex("-0x1.2c155b8213d00p-6")
    assert check.worst_at == {"H": domain[index][0], "ratio": math.exp(2.0 * domain[index][1])}
    assert check.worst_at == {"H": 1.0, "ratio": 0.01831563888873418}
    assert check.passed


def test_log_det_routes_fail_where_one_route_drifts_and_name_its_market(monkeypatch):
    # two n = 2000 markets stand in for the n = 10^6 ones; the check's reduction is the same
    markets = tuple(DiscreteMarket(n=2000, delay=d, mu=1e-4, sigma=0.02, sigma_hat=0.026) for d in (3, 40))
    monkeypatch.setattr(verify, "LOG_DET_MARKETS", markets)

    def routes():
        return {c.name: c for c in verify.dual_suite(grid_size=1)}["dual.log_det_routes"]

    check = routes()
    assert check.passed and check.worst <= verify.LOG_DET_ROUTES_TOL
    assert check.worst_at in [asdict(m) for m in markets]
    corner_log_det = toeplitz.corner_log_det
    monkeypatch.setattr(  # a relative 1e-11 on the second market's corner formula alone
        toeplitz, "corner_log_det", lambda v, corner, n: corner_log_det(v, corner, n) * (1.0 + 1e-11 * (len(v) == 41))
    )
    check = routes()
    assert not check.passed and check.worst_at == asdict(markets[1])
    monkeypatch.setattr(toeplitz, "corner_log_det", corner_log_det)
    monkeypatch.setattr(mc, "DURBIN_STEP_BUDGET", 2)  # Durbin finds no certificate within two coefficients
    check = routes()
    assert not check.passed and math.isinf(check.worst)
