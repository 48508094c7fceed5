import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_hedge import ContinuousMarket, DomainError, SizeError, discretize, solve_a, value
import delayed_hedge.kernel as kernel_module
from delayed_hedge.kernel import (
    MAX_INTERVALS,
    KernelSpec,
    _piece,
    alpha,
    c_closed_forms,
    c_coefficients,
    interval_count,
    kappa,
    kappa_integral_residual,
    kappa_ode_grid,
    kernel_spec,
    limit_static_coeff,
    limit_value,
    simpson_weights,
    smooth_pieces,
)


def spec_of(H, ratio):
    # ratio is varsigma_hat^2 / varsigma^2 with varsigma = 1
    return kernel_spec(H, 1.0, math.sqrt(ratio))


# --- alpha -----------------------------------------------------------------

def test_alpha_zero_when_vols_agree():
    assert alpha(0.2, 1.0, 1.0) == 0.0
    assert alpha(0.7, 2.5, 2.5) == 0.0


def test_alpha_scaling_for_small_delay():
    # alpha * H approaches 1 - varsigma_hat / varsigma
    for H in (1e-2, 1e-3, 1e-4):
        assert alpha(H, 1.0, 2.0) * H == pytest.approx(-1.0, abs=20 * H)


def test_alpha_matches_discrete_root_asymptotics():
    c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0 / math.sqrt(2.0))
    a_lim = alpha(0.2, 1.0, 1.0 / math.sqrt(2.0))
    n = 100000
    n_a_n = n * solve_a(discretize(c, n))
    assert n_a_n == pytest.approx(a_lim / (1.0 - a_lim * 0.2), abs=1e-3)


def test_alpha_rejects_bad_delay():
    with pytest.raises(DomainError):
        alpha(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        alpha(1.5, 1.0, 1.0)


@settings(deadline=None, max_examples=200)
@given(
    H=st.floats(min_value=1e-3, max_value=1.0),
    logratio=st.floats(min_value=-2.0, max_value=2.0),
)
def test_alpha_keeps_level_denominator_positive(H, logratio):
    a = alpha(H, 1.0, math.exp(logratio))
    assert 1.0 - a * H > 0.0


# --- coefficients ----------------------------------------------------------

def test_coefficients_vanish_when_alpha_zero():
    assert np.array_equal(c_coefficients(0.0, 0.2), np.zeros(5))


def test_second_coefficient_closed_form():
    c = c_coefficients(1.0, 0.2)
    assert c[1] == pytest.approx(-math.exp(0.2), rel=1e-15)


def test_fifth_coefficient_closed_form():
    # evaluate the degree-5 closed form independently at alpha=0.7, H=0.15
    a, H = 0.7, 0.15
    E, z = math.exp(a * H), a * H
    want = E * (-6 * E**3 + (18 * E**2 + z * (z - 12 * E)) * z) * a / 6
    got = c_coefficients(a, H)
    assert got[4] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("H,ratio", [(0.15, 0.5), (0.15, 2.0), (0.2, 0.5), (0.2, 2.0), (0.35, 0.5), (0.35, 2.0)])
def test_all_closed_forms(H, ratio):
    spec = spec_of(H, ratio)
    closed = c_closed_forms(spec.alpha, H)
    for k in range(min(10, spec.K)):
        assert spec.c[k] == pytest.approx(closed[k], rel=1e-10)


def _delayed_exponential(a, z, E, k):
    """c_k as ``c_closed_forms`` sums it, with exp((k-1-j) z) written E^(k-1-j) for an E free of z."""
    return -a * sum((-z) ** j * (k - 1 - j) ** j * E ** (k - 1 - j) / math.factorial(j) for j in range(k))


@pytest.mark.parametrize("seed", range(10))
def test_delayed_exponential_sum_is_the_recurrence_exactly(seed):
    rng = random.Random(seed)
    a, z, E = (Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3))
    c = [-a]  # c_coefficients' recurrence in exact rationals, with exp(alpha H) = E
    for k in range(1, 30):
        c.append(E * sum(c[k - 1 - j] * (-z) ** j / math.factorial(j) for j in range(k)))
    assert c == [_delayed_exponential(a, z, E, k) for k in range(1, 31)]


@pytest.mark.parametrize("H", [0.001, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("ratio", [1e-4, 1e-2, 0.25, 0.99, 1.01, 4.0, 100.0, 1e4])
def test_closed_forms_match_the_recurrence_across_the_domain(H, ratio):
    spec = spec_of(H, ratio)
    closed = c_closed_forms(spec.alpha, H)
    assert closed.shape == (10,)
    for k in range(min(10, spec.K)):
        assert abs(closed[k] - spec.c[k]) <= 1e-11 * abs(spec.c[k])


def test_kernel_spec_caps_the_interval_count():
    assert kernel_spec(0.001, 1.0, math.sqrt(2.0)).K == MAX_INTERVALS
    with pytest.raises(SizeError):
        kernel_spec(0.0009, 1.0, math.sqrt(2.0))
    # alpha and the limit value never build the c_k, so they take any H in (0, 1]
    c = ContinuousMarket(H=1e-6, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(2.0))
    assert math.isfinite(alpha(1e-6, 1.0, math.sqrt(2.0)))
    assert math.isfinite(limit_value(c))


def test_interval_count_exact_rationals():
    assert interval_count(0.2) == 5
    assert interval_count(0.15) == 7
    assert interval_count(1.0) == 1
    assert interval_count(0.35) == 3


# --- kappa -----------------------------------------------------------------

def test_kappa_constant_before_delay():
    spec = spec_of(0.2, 2.0)
    for t in (0.0, 0.05, 0.19999):
        assert kappa(t, spec) == spec.level


def test_kappa_jump_value():
    for H, ratio in [(0.2, 2.0), (0.2, 0.5), (0.35, 0.5)]:
        spec = spec_of(H, ratio)
        target = spec.alpha**2 * H / (1.0 - spec.alpha * H)
        assert kappa(H, spec) == pytest.approx(target, abs=1e-12 * max(1.0, abs(target)))


# np.float64 passes isinstance(x, float) but runs the scalar loops at about twice the cost
@pytest.mark.parametrize("t", [0.0, 0.1, 0.2, 0.55, 0.6, 1.0])
def test_scalar_kappa_returns_a_float(t):
    spec = spec_of(0.2, 2.0)
    assert type(kappa(t, spec)) is float
    assert type(kappa(np.float64(t), spec)) is float
    assert kappa(np.float64(t), spec) == kappa(t, spec)


@pytest.mark.parametrize("H", [0.2, 0.15, 0.02, 0.001])
def test_constants_are_a_tuple_of_python_floats(H):
    spec = spec_of(H, 2.0)
    assert type(spec.c) is tuple
    assert all(type(c) is float for c in spec.c)


def test_scalar_kappa_keeps_math_exp(monkeypatch):
    # CSV output at %.12g must not depend on numpy's vectorised exp
    calls = []

    def exp(x):
        calls.append(x)
        return math.exp(x)

    spec = spec_of(0.2, 2.0)
    monkeypatch.setattr(kernel_module, "math", types.SimpleNamespace(exp=exp, floor=math.floor))
    kappa(0.55, spec)
    assert len(calls) == 1


def _written_out_piece(t, k, spec):
    """Interval k's polynomial at t, the series written out term by term in the recurrence's order."""
    u = t - k * spec.H
    term, total = 1.0, 0.0
    for j in range(k):
        total += spec.c[k - 1 - j] * term
        term *= ((-spec.alpha) * u) / (j + 1)
    return spec.level + math.exp(spec.alpha * u) * total


@pytest.mark.parametrize("H", [0.2, 0.15, 0.02, 1.0])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_series_keeps_the_written_out_recurrence_bit_for_bit(H, ratio):
    spec = spec_of(H, ratio)
    al = spec.alpha
    c = [-al]
    for k in range(1, spec.K):
        term, total = 1.0, 0.0
        for j in range(k):
            total += c[k - 1 - j] * term
            term *= (-al * H) / (j + 1)
        c.append(math.exp(al * H) * total)
    assert list(spec.c) == c

    for t in np.linspace(H, 1.0, 97).tolist():
        k = min(math.floor(t / H), max(1, spec.K - 1))  # t = 1 = H takes interval 1
        assert kappa(t, spec) == _piece(t, k, spec) == _written_out_piece(t, k, spec)
        # the residual's window starts at t - H on interval k - 1, interval 0 included
        assert _piece(t - H, k - 1, spec) == _written_out_piece(t - H, k - 1, spec)


@pytest.mark.parametrize("H", [0.2, 0.15, 0.02, 1.0])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_scalar_piece_keeps_the_bits_of_the_series_over_its_quadrature_window(H, ratio):
    # quadrature evaluates interval k's polynomial on [(k-1)H, (k+1)H]: below kH for the
    # residual's window, at (k+1)H for a one-sided end; on t's own interval it is kappa
    spec = spec_of(H, ratio)
    for k in range(spec.K):
        for t in np.linspace(max(k - 1, 0) * H, min((k + 1) * H, 1.0), 23).tolist():
            assert _piece(t, k, spec) == _written_out_piece(t, k, spec)
            if t >= H and kernel_module._interval_at(t, spec) == k:
                assert kappa(t, spec) == _piece(t, k, spec)


@pytest.mark.parametrize("H", [0.2, 0.02, 0.001])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_horner_interval_values_match_the_series_inside_each_interval(H, ratio):
    # Horner in alpha (t - kH) against _piece's series at each node inside interval k, both
    # breakpoints included; the gap grows with the K terms: measured worst 4.4e-16 of
    # max(1, |kappa|) at K = 5, 1.4e-14 at K = 50 and 3.4e-13 at K = 1000
    spec = spec_of(H, ratio)
    rng = np.random.default_rng(spec.K)
    for k in sorted(set(range(0, spec.K, max(1, spec.K // 25))) | {spec.K - 1}):
        ts = np.concatenate([np.linspace(k * H, (k + 1) * H, 41), rng.uniform(k * H, (k + 1) * H, 40)])
        want = np.array([_piece(t, k, spec) for t in ts.tolist()])
        got = kernel_module._interval_values(spec.alpha * (ts - k * H), k, spec)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * spec.K * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("H", [0.2, 0.15, 0.02])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_array_piece_matches_scalar_piece(H, ratio):
    # the L2 distance's layout: (node, piece) views of two larger reused buffers, the values
    # written to ``out``, with the Horner test's tolerance; ``v`` is left holding exp(v)
    spec = spec_of(H, ratio)
    left, right, k, _ = smooth_pieces(np.linspace(0.0, 1.0, 101), spec)
    fractions = np.arange(17)[:, None] / 16
    nodes, values = np.full(17 * len(k), np.nan), np.full(17 * len(k), np.nan)
    for piece in np.unique(k).tolist():
        rows = k == piece
        ts = left[rows] + fractions * (right[rows] - left[rows])
        v, f = (buffer[: ts.size].reshape(ts.shape) for buffer in (nodes, values))
        v[...] = spec.alpha * (ts - piece * H)
        exp_v = np.exp(v)
        assert kernel_module._interval_values(v, piece, spec, out=f) is f
        want = np.array([[_piece(t, piece, spec) for t in row] for row in ts.tolist()])
        np.testing.assert_allclose(f, want, rtol=0, atol=1e-15 * spec.K * max(1.0, np.abs(want).max()))
        if piece >= 1:
            assert np.array_equal(v, exp_v)


@pytest.mark.parametrize("H", [0.2, 0.15, 0.02])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_first_piece_is_exactly_the_level(H, ratio):
    # interval 0 sums a series of no terms, so its polynomial is the level to the bit
    spec = spec_of(H, ratio)
    ts = np.linspace(0.0, H, 9)
    assert all(_piece(t, 0, spec) == spec.level for t in ts.tolist())
    assert np.array_equal(kernel_module._interval_values(spec.alpha * ts, 0, spec), np.full_like(ts, spec.level))


def test_kappa_outside_domain():
    spec = spec_of(0.2, 2.0)
    with pytest.raises(DomainError):
        kappa(-0.1, spec)
    with pytest.raises(DomainError):
        kappa(1.1, spec)


def test_kappa_matches_delay_ode_oracle_at_point():
    spec = spec_of(0.2, 2.0)
    ts, ys = kappa_ode_grid(spec, step=1e-5)
    i = int(np.argmin(np.abs(ts - 0.55)))
    assert abs(ts[i] - 0.55) < 1e-9
    assert kappa(float(ts[i]), spec) == pytest.approx(float(ys[i]), abs=1e-9)


@pytest.mark.parametrize("H,ratio", [(0.2, 2.0), (0.2, 0.5), (0.15, 2.0)])
def test_kappa_matches_delay_ode_oracle_supnorm(H, ratio):
    spec = spec_of(H, ratio)
    ts, ys = kappa_ode_grid(spec, step=1e-4)
    gaps = [abs(kappa(float(t), spec) - y) for t, y in zip(ts, ys)]
    assert max(gaps) < 1e-7


def _ode_grid_with_interp(spec, step):
    """RK4 method of steps with Lagrange weights rebuilt at every half step."""
    H, K, al = spec.H, spec.K, spec.alpha
    m = max(4, int(math.ceil(H / step)))
    h = H / m
    history = np.full(m + 1, spec.level)

    def interp(values, q):
        base = min(max(int(math.floor(q)) - 1, 0), len(values) - 4)
        xs = np.arange(base, base + 4, dtype=float)
        w = [np.prod([(q - xs[k]) / (xs[j] - xs[k]) for k in range(4) if k != j]) for j in range(4)]
        return float(sum(w[j] * values[base + j] for j in range(4)))

    y = al * H * spec.level
    ts, ys = [H], [y]
    for interval in range(1, K):
        current = np.empty(m + 1)
        current[0] = y
        for i in range(m):
            g_half = interp(history, i + 0.5)
            k1 = al * (y - history[i])
            k2 = al * (y + 0.5 * h * k1 - g_half)
            k3 = al * (y + 0.5 * h * k2 - g_half)
            k4 = al * (y + h * k3 - history[i + 1])
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            current[i + 1] = y
            ts.append(interval * H + (i + 1) * h)
            ys.append(y)
        history = current
    ts, ys = np.array(ts), np.array(ys)
    keep = ts <= 1.0 + 1e-12
    return ts[keep], ys[keep]


@pytest.mark.parametrize(
    "H,ratio,step",
    [(0.2, 2.0, 1e-3), (0.15, 0.5, 1e-3), (0.02, 2.0, 1e-3), (0.35, 0.5, 1.0), (1.0, 2.0, 1e-3)],
)
def test_ode_grid_half_step_weights_match_rebuilt_lagrange_weights(H, ratio, step):
    spec = spec_of(H, ratio)
    ts, ys = kappa_ode_grid(spec, step=step)
    want_ts, want_ys = _ode_grid_with_interp(spec, step)
    assert np.array_equal(ts, want_ts)
    np.testing.assert_allclose(ys, want_ys, rtol=0, atol=1e-13)


def _ode_grid_on_ndarray(spec, step):
    """The RK4 step loop that kappa_ode_grid replaced by its recurrence, history in an ndarray."""
    H, K, al = spec.H, spec.K, spec.alpha
    m = max(4, int(math.ceil(H / step)))
    h = H / m
    history = np.full(m + 1, spec.level)
    y = al * H * spec.level
    first, inside, last = np.array([[5, 15, -5, 1], [-1, 9, 9, -1], [1, -5, 15, 5]]) / 16.0
    ys = [[y]]
    for interval in range(1, K):
        windows = np.lib.stride_tricks.sliding_window_view(history, 4)
        g_half = np.concatenate([[windows[0] @ first], windows @ inside, [windows[-1] @ last]])
        current = np.empty(m + 1)
        current[0] = y
        for i in range(m):
            k1 = al * (y - history[i])
            k2 = al * (y + 0.5 * h * k1 - g_half[i])
            k3 = al * (y + 0.5 * h * k2 - g_half[i])
            k4 = al * (y + h * k3 - history[i + 1])
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            current[i + 1] = y
        history = current
        ys.append(current[1:])
    ts = np.concatenate([[H]] + [interval * H + np.arange(1, m + 1) * h for interval in range(1, K)])
    ys = np.concatenate(ys)
    keep = ts <= 1.0 + 1e-12
    return ts[keep], ys[keep]


# ratio 20 at H 0.2 has |alpha H| near 3.9, so an interval runs in several chunks; the
# recurrence sums in another order than the loop, so the values agree to rounding, not bits
@pytest.mark.parametrize("H", [0.02, 0.15, 0.2, 0.8, 1.0])
@pytest.mark.parametrize("ratio", [0.05, 0.5, 2.0, 20.0])
def test_ode_grid_recurrence_matches_the_step_loop(H, ratio):
    spec = spec_of(H, ratio)
    for step in (1e-3, 1e-4):
        ts, ys = kappa_ode_grid(spec, step=step)
        want_ts, want_ys = _ode_grid_on_ndarray(spec, step)
        assert np.array_equal(ts, want_ts)
        np.testing.assert_allclose(ys, want_ys, rtol=0, atol=1e-13 * np.abs(want_ys).max())


def test_ode_grid_recurrence_matches_the_step_loop_one_step_per_chunk():
    # |log rho| > 1 leaves one step per chunk: alpha h = -8.75 gives rho near 163
    spec = KernelSpec(alpha=-100.0, H=0.35, c=(100.0, 0.0, 0.0))
    ts, ys = kappa_ode_grid(spec, step=1.0)
    want_ts, want_ys = _ode_grid_on_ndarray(spec, 1.0)
    assert np.array_equal(ts, want_ts)
    np.testing.assert_allclose(ys, want_ys, rtol=0, atol=1e-13 * np.abs(want_ys).max())


@pytest.mark.parametrize("step", [0.0, -1e-3, -math.inf, math.inf, math.nan])
def test_ode_grid_refuses_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(DomainError, match="step"):
        kappa_ode_grid(spec_of(0.2, 2.0), step=step)


@pytest.mark.parametrize("step", [1e-12, 5e-324])
def test_ode_grid_refuses_a_tiny_step_before_allocating(step):
    import tracemalloc

    spec = spec_of(0.2, 2.0)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=str(kernel_module.MAX_ODE_NODES)):
            kappa_ode_grid(spec, step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_ode_grid_node_cap_counts_every_interval_with_its_history(monkeypatch):
    spec = spec_of(0.2, 2.0)  # K = 5
    monkeypatch.setattr(kernel_module, "MAX_ODE_NODES", 5 * 40)
    ts, _ = kappa_ode_grid(spec, step=0.2 / 40)  # 40 steps per interval: exactly at the cap
    assert len(ts) == 4 * 40 + 1
    with pytest.raises(SizeError):
        kappa_ode_grid(spec, step=0.2 / 40.5)  # 41 steps per interval
    monkeypatch.setattr(kernel_module, "MAX_ODE_NODES", 5 * 4 - 1)
    with pytest.raises(SizeError):
        kappa_ode_grid(spec, step=1.0)  # the floor of 4 steps per interval counts too


def test_kappa_continuous_at_interval_joins():
    spec = spec_of(0.2, 0.5)
    for k in (2, 3, 4):
        gaps = [abs(kappa(k * 0.2, spec) - kappa(k * 0.2 - eps, spec)) for eps in (1e-4, 1e-6, 1e-8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6


def test_integral_equation_residuals():
    assert kappa_integral_residual(0.5, spec_of(0.2, 1.0)) == 0.0  # alpha = 0
    spec = spec_of(0.2, 2.0)
    assert abs(kappa_integral_residual(0.2, spec, quadsteps=2000)) < 1e-10
    worst = max(
        abs(kappa_integral_residual(t, spec, quadsteps=2000))
        for t in np.linspace(0.2, 1.0, 81)
    )
    assert worst < 1e-8


def test_integral_equation_domain():
    with pytest.raises(DomainError):
        kappa_integral_residual(0.1, spec_of(0.2, 2.0))
    for quadsteps in (0, -3, 2.5, 2000.0, True, np.True_):  # a bool is an Integral, but no panel count
        with pytest.raises(DomainError, match="quadsteps"):
            kappa_integral_residual(0.5, spec_of(0.2, 2.0), quadsteps=quadsteps)


def test_integral_equation_takes_numpy_integer_quadsteps():
    spec = spec_of(0.2, 2.0)
    assert kappa_integral_residual(0.5, spec, quadsteps=np.int64(40)) == kappa_integral_residual(0.5, spec, quadsteps=40)


def _window_pieces(t, spec, quadsteps):
    """(left, right, k, panels) of each smooth piece of [t - H, t], as the per-window residual cut it."""
    pieces = zip(*(a.tolist() for a in smooth_pieces([t - spec.H, t], spec)[:3]))
    return [(left, right, k, max(1, int(math.ceil(quadsteps * (right - left) / spec.H)))) for left, right, k in pieces]


def _per_window_residual(t, spec, quadsteps=2000):
    """The residual with its window integrated afresh: split at multiples of H, each
    smooth piece by Simpson with a share of ``quadsteps`` panels proportional to its length."""
    t = float(t)
    integral = 0.0
    for left, right, k, panels in _window_pieces(t, spec, quadsteps):
        vals = [_piece(u, k, spec) for u in np.linspace(left, right, 2 * panels + 1).tolist()]
        integral += (right - left) / (6 * panels) * float(np.dot(vals, simpson_weights(panels)))
    return kappa(t, spec) - spec.alpha * integral


@pytest.mark.parametrize("quadsteps", [1, 2, 7, 2000])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
@pytest.mark.parametrize("H", [0.02, 0.05, 0.2, 0.5, 1.0])
def test_running_integral_residual_matches_the_per_window_simpson(H, ratio, quadsteps):
    # On a multiple of H both rules integrate one whole interval with quadsteps panels, so they
    # agree for any quadsteps.  The per-window rule gives a window of length H (1 + eps) one panel
    # more, and a sliver cut off before a rounded multiple of H a panel of its own; such t are
    # left to quadsteps = 2000, where either rule is accurate to far below 1e-12, as is every t
    # between the multiples.
    spec = spec_of(H, ratio)
    ts = [k * H for k in range(1, spec.K + 1)] + [1.0]
    if quadsteps == 2000:
        ts += np.linspace(H, 1.0, 41).tolist()
    else:
        ts = [t for t in ts if sum(piece[3] for piece in _window_pieces(t, spec, quadsteps)) == quadsteps]
        assert len(ts) >= min(spec.K, 5)
    for t in ts:
        assert abs(kappa_integral_residual(t, spec, quadsteps) - _per_window_residual(t, spec, quadsteps)) <= 1e-12
    if quadsteps == 2000:
        assert max(abs(kappa_integral_residual(t, spec)) for t in ts) <= 1e-12


@pytest.mark.parametrize("quadsteps", [1, 8, 2000])
@pytest.mark.parametrize("H,ratio", [(0.2, 2.0), (0.15, 0.5), (0.02, 2.0)])
def test_integral_tables_match_scalar_simpson_rows(H, ratio, quadsteps):
    # entry j of interval k's table against Simpson with j panels over [kH, kH + j H / quadsteps]
    # on scalar _piece values; the gap is the Horner values' (K terms) and the running sum's (j terms)
    spec = spec_of(H, ratio)
    width = H / quadsteps
    for k in range(spec.K):
        table = spec._integral_table(k, quadsteps)
        assert table.shape == (quadsteps + 1,) and table[0] == 0.0
        for j in sorted({1, min(2, quadsteps), (quadsteps + 1) // 2, quadsteps}):
            vals = [_piece(t, k, spec) for t in np.linspace(k * H, k * H + j * width, 2 * j + 1).tolist()]
            want = j * width / (6 * j) * float(np.dot(vals, simpson_weights(j)))
            scale = j * width * max(1.0, max(abs(x) for x in vals))
            assert abs(table[j] - want) <= 1e-15 * (spec.K + j) * scale


def _residual_with_piece_at_both_ends(t, spec, quadsteps=2000):
    """kappa_integral_residual as written before it passed kappa(t) on as the window's upper end."""

    def running(k, s):
        table = spec._integral_table(k, quadsteps)
        width = spec.H / quadsteps
        j = min(max(math.floor((s - k * spec.H) / width), 0), quadsteps - 1)
        left = k * spec.H + j * width
        ends = _piece(left, k, spec) + _piece(s, k, spec)
        return table.item(j) + (s - left) / 6.0 * (ends + 4.0 * _piece(0.5 * (left + s), k, spec))

    k = math.floor(t / spec.H)
    k = k if k < spec.K else max(1, spec.K - 1)
    whole = spec._integral_table(k - 1, quadsteps).item(quadsteps)
    return kappa(t, spec) - spec.alpha * (whole - running(k - 1, t - spec.H) + running(k, t))


@pytest.mark.parametrize("H,ratio", [(0.2, 2.0), (0.02, 0.5)])
def test_residual_keeps_its_bits_when_it_reuses_kappa_at_t(H, ratio):
    spec = spec_of(H, ratio)
    ts = np.linspace(H, 1.0, 200).tolist()
    got = [kappa_integral_residual(t, spec).hex() for t in ts]
    assert got == [_residual_with_piece_at_both_ends(t, spec).hex() for t in ts]


@pytest.mark.parametrize("H,index", [(0.2, 2), (0.02, 2), (0.02, 30)])
def test_running_integral_residual_sees_a_perturbed_constant(H, index):
    spec = spec_of(H, 2.0)
    c = list(spec.c)
    c[index] *= 1.0 + 1e-6
    bad = KernelSpec(alpha=spec.alpha, H=H, c=tuple(c))
    assert max(abs(kappa_integral_residual(t, bad)) for t in np.linspace(H, 1.0, 200).tolist()) > 1e-8


def test_running_integrals_are_built_once_per_interval_and_quadsteps(monkeypatch):
    built = []

    interval_values = kernel_module._interval_values

    def counting_values(s, k, spec, out=None):
        built.append((k, s.size))
        return interval_values(s, k, spec, out)

    monkeypatch.setattr(kernel_module, "_interval_values", counting_values)
    spec = spec_of(0.2, 2.0)  # K = 5
    ts = np.linspace(0.2, 1.0, 200).tolist()
    first = [kappa_integral_residual(t, spec, 50) for t in ts]
    assert sorted(built) == [(k, 101) for k in range(5)]
    assert [kappa_integral_residual(t, spec, 50) for t in ts] == first
    assert len(built) == 5
    # one quadsteps is held at a time: another one rebuilds, and so does going back
    kappa_integral_residual(0.5, spec, 7)
    assert built[5:] == [(1, 15), (2, 15)]
    assert list(spec._tables) == [7]
    kappa_integral_residual(0.5, spec, 50)
    assert len(built) == 9
    # a fresh spec builds its own tables
    kappa_integral_residual(0.5, spec_of(0.2, 2.0), 50)
    assert len(built) == 11


def test_running_integrals_stay_small_at_the_interval_cap():
    import tracemalloc

    spec = spec_of(0.001, 2.0)
    assert spec.K == MAX_INTERVALS
    ts = np.linspace(0.001, 1.0, 20).tolist()
    tracemalloc.start()
    try:
        worst = max(abs(kappa_integral_residual(t, spec)) for t in ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst < 1e-8
    tables = spec._tables[2000]
    assert len(tables) <= 2 * len(ts)
    assert sum(table.nbytes for table in tables.values()) == len(tables) * 2001 * 8
    assert peak < 2_000_000


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_kappa_at_full_delay_is_the_value_after_the_jump(ratio):
    # H = 1 leaves one interval, so t = 1 = H must take the value alpha H level after the jump
    spec = spec_of(1.0, ratio)
    assert spec.K == 1
    assert kappa(1.0, spec) == pytest.approx(spec.alpha * spec.level, rel=1e-12)
    assert kappa(1.0, spec) != pytest.approx(spec.level)
    assert abs(kappa_integral_residual(1.0, spec)) <= 1e-12
    ts, ys = kappa_ode_grid(spec)
    assert ts.tolist() == [1.0]
    assert kappa(1.0, spec) == pytest.approx(ys[0], rel=1e-12)


# --- strategy kernel: gamma_u = kappa_u - level ----------------------------

def test_gamma_kernel_zero_before_delay():
    spec = spec_of(0.2, 0.5)
    for u in (0.0, 0.1, 0.19):
        assert kappa(u, spec) - spec.level == 0.0


def test_gamma_kernel_jump_size():
    for H, ratio in [(0.2, 0.5), (0.15, 2.0)]:
        spec = spec_of(H, ratio)
        assert kappa(H, spec) - spec.level == pytest.approx(-spec.alpha, rel=1e-12)


def test_gamma_kernel_sign_matches_ratio():
    spec = spec_of(0.2, 0.5)
    vals = [kappa(u, spec) - spec.level for u in np.linspace(0.2, 1.0, 50)]
    assert all(v < 0 for v in vals)
    spec = spec_of(0.2, 2.0)
    vals = [kappa(u, spec) - spec.level for u in np.linspace(0.2, 1.0, 50)]
    assert all(v > 0 for v in vals)


# --- limits ----------------------------------------------------------------

def test_limit_value_consistent_market():
    c = ContinuousMarket(H=0.3, theta=0.0, varsigma=1.0, varsigma_hat=1.0)
    assert limit_value(c) == -1.0
    c = ContinuousMarket(H=0.3, theta=0.5, varsigma=1.0, varsigma_hat=1.0)
    assert limit_value(c) == pytest.approx(-math.exp(-0.125), rel=1e-15)


def test_limit_value_is_discrete_limit():
    for vsh in (1.0 / math.sqrt(2.0), math.sqrt(2.0)):
        c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=vsh)
        target = limit_value(c)
        gaps = [abs(value(discretize(c, n)) - target) for n in (100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2


def test_limit_static_coeff():
    assert limit_static_coeff(ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=1.0)) == 0.0
    c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=2.0)
    assert limit_static_coeff(c) < 0.0
    c = ContinuousMarket(H=0.2, theta=0.0, varsigma=1.0, varsigma_hat=0.8)
    n = 100000
    assert limit_static_coeff(c) == pytest.approx(n * solve_a(discretize(c, n)) / 2.0, rel=1e-3)


def test_kernel_spec_refuses_non_finite_constants_without_warnings():
    import warnings

    from delayed_hedge import NumericalError

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="1e\\+16"):
            kernel_spec(0.02, 1.0, 1e8)
        spec = spec_of(0.02, 1e4)  # a large ratio whose constants stay finite
    assert np.isfinite(spec.c).all()
