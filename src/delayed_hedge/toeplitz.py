"""Symmetric Toeplitz matrix A, its banded inverse, and dense oracles.

A is defined by A_ij = r_|i-j| with first row r = (a + 1, b_1, ..., b_{n-1});
its inverse is D-banded and is reconstructed explicitly, as its (D+1) x n
lower band (``inverse_band``), from the vector v that solves A v = e_0:

    v_0 = (a D + 1) / (a (D + 1) + 1),
    v_1 = ... = v_D = -a / (a (D + 1) + 1),
    v_{D+1} = ... = v_{n-1} = 0,

    [A^-1]_ij = (1/v_0) ( sum_{k=1..i^j} v_{i-k} v_{j-k}
                          - sum_{k=1..(i^j)-1} v_{n-i+k} v_{n-j+k} ),

with 1-based i, j and i^j = min(i, j).  The closed-form determinant is
|A| = (1 + (D+1) a)^{n-D} / (1 + D a)^{n-D-1}.

So A^-1 is fixed by its taps v_0..v_D.  ``inverse_band`` takes them and n,
and ``taps_log_det`` gives log |A^-1| from the taps' reflection coefficients
in O(D^2) time and O(D) memory, whatever n.

``inverse_via_v`` is the dense n x n view of the band.  Dense inversion /
determinant oracles (pivoted LAPACK via numpy) live here too so that every
closed form can be cross-checked on the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, SingularMatrix, SizeError

# Exhaustive minor enumeration is combinatorial; beyond this size it is
# pointless (the property is structural and small n already exercises it).
# Up to the cap every minor is gathered at once: no (n, D) has more than 8008
# pairs (n = 12, D = 4), and the largest gather is n = 12, D = 5, 6188 minors of
# size 6 (1.8 MB of doubles).
MINOR_ENUMERATION_LIMIT = 12

# Dense oracles refuse matrices whose condition estimate exceeds this.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SymToeplitz:
    """Symmetric Toeplitz matrix stored by its first row."""

    first_row: np.ndarray

    @property
    def n(self) -> int:
        return len(self.first_row)

    def to_dense(self) -> np.ndarray:
        idx = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        return self.first_row[idx]


def require_root_domain(a: float, delay: int) -> None:
    """Raise DomainError unless a (D + 1) + 1 > 0, the domain of v, the weights and |A|."""
    if a * (delay + 1) + 1.0 <= 0.0:
        raise DomainError(f"a = {a} violates a > -1/(D+1) for D = {delay}")


def v_vector(a: float, delay: int) -> np.ndarray:
    """The D + 1 taps v_0..v_D of A^-1's first column (the solution of A v = e_0), past which it is zero."""
    require_root_domain(a, delay)
    denom = a * (delay + 1) + 1.0
    v = np.full(delay + 1, -a / denom)
    v[0] = (a * delay + 1.0) / denom
    return v


def inverse_band(v: np.ndarray, n: int) -> np.ndarray:
    """The (D+1) x n lower band of the Gohberg-Semencul sum of the taps v_0..v_D padded
    with zeros to n (D = len(v) - 1): band[d, j] = [A^-1]_{j+d, j} when v is A^-1's first column.

    The two partial sums telescope along diagonals,
    B[j+d, j] = B[j+d-1, j-1] + (v_{j+d} v_j - v_{n-j-d} v_{n-j}) / v_0 (0-based),
    from B[d, 0] = v_d, so each diagonal is one cumulative sum of its
    increments: O(n D) time and memory, with the lagged factors v_{j+d} and
    v_{n-j-d} read as windows of two padded n + D vectors (``_windows``), not
    gathered.  The cumulative sum adds left to right,
    the order of the row-by-row recurrence, so the dense view repeats it to
    the bit.  Entries past the end of a diagonal (j > n - 1 - d) are zero.
    For any taps the band is that of (T(v) T(v)' - T(w) T(w)') / v_0, with
    T(.) the n x n lower-triangular Toeplitz matrix of a first column and
    w = (0, v_{n-1}, ..., v_1).
    """
    delay = len(v) - 1
    _require_width(delay, n)
    ahead = np.zeros(n + delay)  # ahead[k] = v_k, zero past the taps
    ahead[: delay + 1] = v
    mirror = np.zeros(n + delay)  # mirror[k] = v_{n-k} for 0 < k < n, else zero
    mirror[n - delay : n] = v[:0:-1]
    past = np.zeros(n + delay, dtype=bool)  # past[k]: k >= n
    past[n:] = True
    band = (_windows(ahead, delay + 1, n) * ahead[:n] - _windows(mirror, delay + 1, n) * mirror[:n]) / v[0]
    band[:, 0] = v
    band.cumsum(axis=1, out=band)
    np.copyto(band, 0.0, where=_windows(past, delay + 1, n))
    return band


def _windows(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) view of the contiguous 1-D ``a`` whose entry (d, j) is a[d + j],
    for len(a) >= rows + cols - 1: no index array, no copy.  Read it; never write to it."""
    return np.ndarray((rows, cols), a.dtype, a, strides=(a.itemsize, a.itemsize))


def _require_width(delay: int, n: int) -> None:
    """Raise DomainError unless 0 <= delay < n."""
    if not 0 <= delay < n:
        raise DomainError(f"need 0 <= delay < n, got delay={delay}, n={n}")


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix whose lower band is ``band`` (zero outside it)."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    flat = dense.reshape(-1)
    for d, diagonal in enumerate(band):
        flat[d * n :: n + 1] = diagonal[: n - d]  # entries (j + d, j)
        flat[d :: n + 1][: n - d] = diagonal[: n - d]  # entries (j, j + d)
    return dense


def lower_toeplitz(taps: np.ndarray) -> np.ndarray:
    """The square lower-triangular Toeplitz matrix with first column ``taps``: entry (k, j)
    is taps[k - j] for j <= k, else 0, copied from the windows of the taps after size - 1 zeros."""
    size = len(taps)
    padded = np.zeros(max(2 * size - 1, 0))
    padded[size - 1 :] = taps
    return _windows(padded, size, size)[:, ::-1].copy()  # window (k, size - 1 - j) is padded[size - 1 + k - j]


def taps_log_det(v: np.ndarray, n: int) -> float:
    """log |K| = n log v_0 + sum_{p=1..D} p log(1 - k_p^2) for the n x n Gohberg-Semencul sum K of
    the taps v_0..v_D (D = len(v) - 1 < n), with no D x D array.

    phi = v / v_0 is an order-D predictor; stepping it down one order at a
    time gives its reflection coefficients k_D, ..., k_1: k_p is the
    predictor's last coefficient, then phi_j <- (phi_j - k_p phi_{p-j}) /
    (1 - k_p^2) for j < p.  This is Durbin's recursion
    (``mc.reflection_coefficients``) run backwards.  The loop keeps
    psi = (1 - k_D^2) ... (1 - k_{p+1}^2) phi instead, so k_p = psi_p / psi_0
    and each step is one scaled subtraction.  K is A^-1 for the Toeplitz A
    of the autoregression with that predictor: its reflection coefficients
    past order D vanish, so log |A| = n log r_0 + sum_p (n - p) log(1 - k_p^2)
    with r_0 = 1 / (v_0 prod_p (1 - k_p^2)), and log |K| = -log |A| is the
    sum above.  K is positive definite iff v_0 > 0 and every |k_p| < 1
    (Schur-Cohn); otherwise this raises ``np.linalg.LinAlgError``.  O(D^2)
    time and O(D) memory, whatever n.
    """
    if not v[0] > 0.0:
        raise np.linalg.LinAlgError(f"leading tap v_0 = {v[0]} is not positive")
    psi = v / v[0]
    total = 0.0
    for p in range(len(v) - 1, 0, -1):
        k = psi.item(p) / psi.item(0)
        if not abs(k) < 1.0:
            raise np.linalg.LinAlgError(f"reflection coefficient k_{p} = {k} is not inside (-1, 1)")
        total += p * math.log1p(-k * k)
        psi[:p] -= k * psi[p:0:-1]
    return n * math.log(v[0]) + total


def inverse_via_v(a: float, delay: int, n: int) -> np.ndarray:
    """Full inverse of A from the v-vector formula: the dense view of ``inverse_band``.

    Out-of-band entries are exact zeros, so the result is D-banded to the bit.
    """
    _require_width(delay, n)
    return band_to_dense(inverse_band(v_vector(a, delay), n))


def log_det_closed_form(a: float, delay: int, n: int) -> float:
    """log |A| = (n - D) log(1 + (D+1) a) - (n - D - 1) log(1 + D a)."""
    require_root_domain(a, delay)
    return (n - delay) * math.log1p((delay + 1) * a) - (n - delay - 1) * math.log1p(delay * a)


def det_closed_form(a: float, delay: int, n: int) -> float:
    """|A| = (1 + (D+1) a)^(n-D) / (1 + D a)^(n-D-1), always positive."""
    return math.exp(log_det_closed_form(a, delay, n))


def check_vanishing_minors(matrix: SymToeplitz, delay: int, tol: float = 1e-9) -> bool:
    """Exhaustively test that all sub-(D+1)-minors with i_1 > j_{D+1} - D vanish.

    The (D+1)-subsets of the indices are one int array; the (rows, cols)
    pairs that meet the condition are the nonzeros of one broadcast
    comparison, gathered by one fancy index into one stacked determinant
    call: at most 6188 minors of size 6 (n = 12, D = 5).  Each minor is
    normalized by the Hadamard bound (product of row norms) of its
    submatrix, so the tolerance is scale invariant.  Raises SizeError for
    n > MINOR_ENUMERATION_LIMIT and DomainError for a negative delay.
    """
    n = matrix.n
    if n > MINOR_ENUMERATION_LIMIT:
        raise SizeError(f"minor enumeration capped at n <= {MINOR_ENUMERATION_LIMIT}, got {n}")
    if delay < 0:
        raise DomainError(f"delay must be non-negative, got {delay}")
    k = delay + 1
    if k > n:
        return True
    dense = matrix.to_dense()
    subsets = np.array(list(combinations(range(n), k)))
    # 1-based condition i_1 > j_{D+1} - D reads i[0] > j[-1] - delay in 0-based form;
    # nonzero walks the mask row-major: row subsets outer, column subsets inner.
    row_ids, col_ids = np.nonzero(subsets[:, :1] > subsets[:, -1] - delay)
    r, c = subsets[row_ids], subsets[col_ids]
    sub = dense[r[:, :, None], c[:, None, :]]
    dets = np.linalg.det(sub)
    scale = np.maximum(np.prod(np.linalg.norm(sub, axis=2), axis=1), 1e-300)
    return not np.any(np.abs(dets) > tol * scale)


def dense_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse by pivoted elimination; oracle for inverse_via_v.

    The 1-norm condition is norm(A, 1) norm(A^-1, 1), the value
    ``np.linalg.cond(A, 1)`` computes from an inverse of its own, here read off
    the one inverse; ``SingularMatrix`` when LAPACK finds no inverse or the
    condition reaches CONDITION_LIMIT.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise DomainError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"no inverse: {exc}") from None
    cond = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise SingularMatrix(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return inverse


def dense_det(matrix: np.ndarray) -> float:
    """Determinant by pivoted elimination; oracle for det_closed_form."""
    matrix = np.asarray(matrix, dtype=float)
    dense_inverse(matrix)  # the condition check
    return float(np.linalg.det(matrix))
