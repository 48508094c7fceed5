"""The stored dual measure (its taps, and the corner derived from them) against exact arithmetic.

For rational a the matrix A, its inverse, its trailing D x D block and its
determinant are computed in ``Fraction``s, and log |A^-1| to 60 digits in
``decimal``; the float taps, corner, ``inverse_via_v`` and corner
log-determinant must match them.  The Schur complement of the inverse's
leading n - D rows is the inverse of A's trailing D x D block, an oracle
independent of the Gohberg-Semencul sum that ``schur_corner`` takes.  For
taps that come from no A, ``inverse_band`` must still be the sum
G G' + diag(0, ``schur_corner(v)``), built densely.
"""

import decimal
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from delayed_hedge import toeplitz

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
def test_taps_corner_and_log_det_match_exact_arithmetic(market):
    a, delay, n = market
    column = _exact_column(a, delay, n)
    inverse, det = _exact_inverse([[column[abs(i - j)] for j in range(n)] for i in range(n)])
    corner, _ = _exact_inverse([[column[abs(i - j)] for j in range(delay)] for i in range(delay)])
    # v's rounding grows as a (D + 1) + 1 falls toward 0
    condition = float((1 + abs(a) * (delay + 1)) / (a * (delay + 1) + 1))
    v = toeplitz.v_vector(float(a), delay)
    got_corner = toeplitz.schur_corner(v)
    exact_v = np.array([float(inverse[i][0]) for i in range(n)])
    assert np.all(exact_v[delay + 1 :] == 0.0) and [inverse[i][0] for i in range(delay + 1, n)] == [0] * (n - delay - 1)
    scale = float(max(abs(x) for row in inverse for x in row))
    tol = 2 * (delay + 1) * EPS * condition * scale  # about 1e-14 of the largest entry at D = 23, a >= 0
    assert np.all(np.abs(v - exact_v[: delay + 1]) <= tol)
    assert np.all(np.abs(got_corner - np.array(corner, dtype=float).reshape(delay, delay)) <= tol)
    dense = toeplitz.inverse_via_v(float(a), delay, n)
    exact = np.array([[float(x) for x in row] for row in inverse])
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > delay
    assert np.all(dense[off_band] == 0.0) and all(inverse[i][j] == 0 for i, j in zip(*np.nonzero(off_band)))
    assert np.max(np.abs(dense - exact)) <= tol
    want = -_log(det)
    got = toeplitz.corner_log_det(v, got_corner, n)
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
    # K = G G' + diag(0, S), G the first n - D columns of T(v) / sqrt(v_0) and S = schur_corner(v),
    # with G G' taken as T T' / v_0 so a leading tap below zero needs no square root
    taps, n = taps_and_n
    v = np.array(taps)
    v[0] = np.copysign(max(abs(v[0]), 0.125), v[0])  # |v_0| >= 1/8
    delay = len(v) - 1
    lower = np.zeros((n, n))
    for k, tap in enumerate(v):
        lower += np.diag(np.full(n - k, tap), -k)
    head = lower[:, : n - delay]
    want = head @ head.T / v[0]
    want[n - delay :, n - delay :] += toeplitz.schur_corner(v)
    got = toeplitz.band_to_dense(toeplitz.inverse_band(v, n))
    off_band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > delay
    assert np.all(got[off_band] == 0.0) and np.all(want[off_band] == 0.0)
    assert np.max(np.abs(got - want)) <= 8 * (delay + 1) * EPS * float(v @ v) / abs(v[0])
