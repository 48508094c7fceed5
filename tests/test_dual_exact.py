"""The stored dual measure (its taps, and the log-determinant read off them) against exact arithmetic.

For rational a the matrix A, its inverse, its trailing D x D block and their
determinants are computed in ``Fraction``s, and log |A^-1| to 60 digits in
``decimal``; the float taps, ``inverse_via_v`` and ``taps_log_det`` must
match them.  The Schur complement of the inverse's leading n - D rows is the
inverse of A's trailing D x D block, so log |A^-1| is also
(n - D) log v_0 - log |A_22|, a route that reads neither the whole inverse
nor the taps' reflection coefficients.  For taps that come from no A,
``inverse_band`` must still be the dense Gohberg-Semencul sum.  The weight
recursion runs in ``Fraction``s too, past the float fixed point at which
``weights_b`` stops.
"""

import decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delayed_hedge import DiscreteMarket, solver, toeplitz

EPS = np.finfo(float).eps


def _exact_column(a, delay, n):
    """A's first column (a + 1, b_1 .. b_{n-1}) in exact arithmetic, by the weight recursion."""
    b = []
    for i in range(n - 1):
        b.append(a if i < delay else a / (a * delay + 1) * sum(b[i - delay : i]))
    return [a + 1] + b


def _exact_inverse(matrix):
    """(inverse, determinant) of a positive definite ``Fraction`` matrix by Gauss-Jordan elimination."""
    size = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for k in range(size):
        pivot = rows[k][k]
        det *= pivot
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(size):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return [row[size:] for row in rows], det


def _log(x):
    """ln of a positive ``Fraction`` to 60 digits."""
    with decimal.localcontext(prec=60):
        return decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()


@st.composite
def _dyadic_markets(draw):
    """(a, D, n) with n <= 24 and a > -1/(D + 1) a multiple of 2^-12, so float(a) is a exactly."""
    n = draw(st.integers(1, 24))
    delay = draw(st.integers(0, n - 1))
    lowest = -(2**12) // (delay + 1)  # a = lowest / 2^12 <= -1/(D + 1)
    return Fraction(draw(st.integers(lowest + 1, 2**13)), 2**12), delay, n


@settings(max_examples=60, deadline=None)
@given(_dyadic_markets())
@example((Fraction(1, 4), 3, 4))  # n = D + 1
@example((Fraction(-1, 8), 3, 6))  # n = 2D
@example((Fraction(3, 2), 3, 7))  # n = 2D + 1
@example((Fraction(-255, 1024), 3, 7))  # a(D + 1) + 1 = 1/256
@example((Fraction(1, 2), 0, 1))
@example((Fraction(-1, 13), 11, 24))
def test_taps_and_log_det_match_exact_arithmetic(market):
    a, delay, n = market
    column = _exact_column(a, delay, n)
    inverse, det = _exact_inverse([[column[abs(i - j)] for j in range(n)] for i in range(n)])
    _, trailing_det = _exact_inverse([[column[abs(i - j)] for j in range(delay)] for i in range(delay)])
    # v's rounding grows as a (D + 1) + 1 falls toward 0
    condition = float((1 + abs(a) * (delay + 1)) / (a * (delay + 1) + 1))
    v = toeplitz.v_vector(float(a), delay)
    exact_v = np.array([float(inverse[i][0]) for i in range(n)])
    assert np.all(exact_v[delay + 1 :] == 0.0) and [inverse[i][0] for i in range(delay + 1, n)] == [0] * (n - delay - 1)
    scale = float(max(abs(x) for row in inverse for x in row))
    tol = 2 * (delay + 1) * EPS * condition * scale  # about 1e-14 of the largest entry at D = 23, a >= 0
    assert np.all(np.abs(v - exact_v[: delay + 1]) <= tol)
    dense = toeplitz.inverse_via_v(float(a), delay, n)
    exact = np.array([[float(x) for x in row] for row in inverse])
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > delay
    assert np.all(dense[off_band] == 0.0) and all(inverse[i][j] == 0 for i, j in zip(*np.nonzero(off_band)))
    assert np.max(np.abs(dense - exact)) <= tol
    with decimal.localcontext(prec=60):
        # log |A^-1| whole, and as (n - D) log v_0 - log |A_22| by the Schur complement of its leading
        # n - D rows, which is the inverse of A's trailing block
        wants = (-_log(det), (n - delay) * _log(inverse[0][0]) - _log(trailing_det))
    got = toeplitz.taps_log_det(v, n)
    for want in wants:
        assert abs(decimal.Decimal(got) - want) <= decimal.Decimal(4 * n * EPS * condition * max(1.0, abs(float(want))))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 11).flatmap(lambda delay: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=delay + 1, max_size=delay + 1),
        st.integers(delay + 1, 3 * delay + 4),
    ))
)
@example(([0.5], 1))  # D = 0
@example(([0.5, 0.25, -0.75, 1.0], 4))  # n = D + 1
@example(([-0.5, 0.25, -0.75, 1.0, 0.125], 8))  # n = 2D < 2D + 1, a negative leading tap
@example(([1.0, 1.0, 1.0], 5))  # n = 2D + 1
def test_inverse_band_is_the_gohberg_semencul_sum_of_any_taps(taps_and_n):
    # K = (T(v) T(v)' - T(w) T(w)') / v_0, T(.) the n x n lower-triangular Toeplitz matrix of a first
    # column and w = (0, v_{n-1}, ..., v_1), the taps padded with zeros to n
    taps, n = taps_and_n
    v = np.array(taps)
    v[0] = np.copysign(max(abs(v[0]), 0.125), v[0])  # |v_0| >= 1/8
    delay = len(v) - 1
    padded = np.zeros(n)
    padded[: delay + 1] = v
    mirror = np.append(0.0, padded[:0:-1])
    lower, lower_mirror = np.zeros((n, n)), np.zeros((n, n))
    for k in range(n):
        lower += np.diag(np.full(n - k, padded[k]), -k)
        lower_mirror += np.diag(np.full(n - k, mirror[k]), -k)
    want = (lower @ lower.T - lower_mirror @ lower_mirror.T) / v[0]
    got = toeplitz.band_to_dense(toeplitz.inverse_band(v, n))
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > delay
    assert np.all(got[off_band] == 0.0) and np.all(want[off_band] == 0.0)
    assert np.max(np.abs(got - want)) <= 8 * (delay + 1) * EPS * float(v @ v) / abs(v[0])


@pytest.mark.parametrize("delay", [1, 2, 3, 5])
@pytest.mark.parametrize("a", [Fraction(1, 8), Fraction(-3, 32)], ids=str)
def test_weights_past_the_fixed_point_stop_match_exact_arithmetic(a, delay):
    # the last D + 2 weights are one float, so the loop stopped at its fixed point (after 35 to 287
    # weights) and filled the rest; measured worst error 0.55 eps max |b|
    count = 400
    m = DiscreteMarket(n=count + 1, delay=delay, mu=0.0, sigma=1.0, sigma_hat=1.0)
    got = solver.weights_b(m, float(a), count)
    assert np.all(got[-delay - 2 :] == got[-1])
    exact = _exact_column(a, delay, count + 1)[1:]
    error = max(abs(Fraction(float(x)) - want) for x, want in zip(got, exact))
    assert error <= Fraction(EPS) * max(abs(want) for want in exact)
