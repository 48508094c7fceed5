"""Reductions behind the ``verify`` checks."""

import math

import numpy as np

from delayed_hedge import convergence, kernel, verify


def test_a_nan_after_the_first_point_fails_its_check():
    # Python's max keeps a NaN only when it comes first; here it would report 1e-12
    (check,) = verify._checks("s", [{"r": 0.0}, {"r": math.nan}, {"r": 1e-12}], {"r": 1e-9})
    assert not check.passed
    assert math.isnan(check.worst)


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
    assert all(c.passed for name, c in checks.items() if name != "convergence.l2_rate_factor")
