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


def v_vector(a: float, delay: int, n: int) -> np.ndarray:
    """First column of A^-1 (the solution of A v = e_0)."""
    require_root_domain(a, delay)
    denom = a * (delay + 1) + 1.0
    v = np.zeros(n)
    v[0] = (a * delay + 1.0) / denom
    v[1 : delay + 1] = -a / denom
    return v


def inverse_band(a: float, delay: int, n: int) -> np.ndarray:
    """The (D+1) x n lower band of A^-1: band[d, j] = [A^-1]_{j+d, j}.

    The two partial sums telescope along diagonals,
    B[j+d, j] = B[j+d-1, j-1] + (v_{j+d} v_j - v_{n-j-d} v_{n-j}) / v_0 (0-based),
    from B[d, 0] = v_d, so each diagonal is one cumulative sum of its
    increments: O(n D) time and memory.  The cumulative sum adds left to right,
    the order of the row-by-row recurrence, so the dense view repeats it to
    the bit.  Entries past the end of a diagonal (j > n - 1 - d) are zero.
    """
    if not 0 <= delay < n:
        raise DomainError(f"need 0 <= delay < n, got delay={delay}, n={n}")
    v = v_vector(a, delay, n)
    pad = np.zeros(delay)
    ahead = np.concatenate([v, pad])  # ahead[k] = v_k
    mirror = np.concatenate([[0.0], v[:0:-1], pad])  # mirror[k] = v_{n-k} for 0 < k < n
    shifted = np.arange(n) + np.arange(delay + 1)[:, None]  # j + d
    band = (ahead[shifted] * v - mirror[shifted] * mirror[:n]) / v[0]
    band[:, 0] = v[: delay + 1]
    band.cumsum(axis=1, out=band)
    band[shifted >= n] = 0.0
    return band


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix whose lower band is ``band`` (zero outside it)."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    flat = dense.reshape(-1)
    for d, diagonal in enumerate(band):
        flat[d * n :: n + 1] = diagonal[: n - d]  # entries (j + d, j)
        flat[d :: n + 1][: n - d] = diagonal[: n - d]  # entries (j, j + d)
    return dense


def inverse_via_v(a: float, delay: int, n: int) -> np.ndarray:
    """Full inverse of A from the v-vector formula: the dense view of ``inverse_band``.

    Out-of-band entries are exact zeros, so the result is D-banded to the bit.
    """
    return band_to_dense(inverse_band(a, delay, n))


def log_det_closed_form(a: float, delay: int, n: int) -> float:
    """log |A| = (n - D) log(1 + (D+1) a) - (n - D - 1) log(1 + D a)."""
    require_root_domain(a, delay)
    return (n - delay) * math.log1p((delay + 1) * a) - (n - delay - 1) * math.log1p(delay * a)


def det_closed_form(a: float, delay: int, n: int) -> float:
    """|A| = (1 + (D+1) a)^(n-D) / (1 + D a)^(n-D-1), always positive."""
    return math.exp(log_det_closed_form(a, delay, n))


def check_vanishing_minors(matrix: SymToeplitz, delay: int, tol: float = 1e-9) -> bool:
    """Exhaustively test that all sub-(D+1)-minors with i_1 > j_{D+1} - D vanish.

    Each minor is normalized by the Hadamard bound (product of row norms) of
    its submatrix, so the tolerance is scale invariant.  Raises SizeError for
    n > MINOR_ENUMERATION_LIMIT.
    """
    n = matrix.n
    if n > MINOR_ENUMERATION_LIMIT:
        raise SizeError(f"minor enumeration capped at n <= {MINOR_ENUMERATION_LIMIT}, got {n}")
    k = delay + 1
    if k > n:
        return True
    dense = matrix.to_dense()
    subsets = [np.array(c) for c in combinations(range(n), k)]
    # 1-based condition i_1 > j_{D+1} - D reads i[0] > j[-1] - delay in 0-based form.
    pairs = [(rows, cols) for rows in subsets for cols in subsets if rows[0] > cols[-1] - delay]
    chunk = 4096
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        sub = np.stack([dense[np.ix_(r, c)] for r, c in block])
        dets = np.linalg.det(sub)
        row_norms = np.linalg.norm(sub, axis=2)
        scale = np.maximum(np.prod(row_norms, axis=1), 1e-300)
        if np.any(np.abs(dets) > tol * scale):
            return False
    return True


def _require_well_conditioned(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {matrix.shape}")
    cond = np.linalg.cond(matrix, 1)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise SingularMatrix(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return matrix


def dense_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse by pivoted elimination; oracle for inverse_via_v."""
    return np.linalg.inv(_require_well_conditioned(matrix))


def dense_det(matrix: np.ndarray) -> float:
    """Determinant by pivoted elimination; oracle for det_closed_form."""
    return float(np.linalg.det(_require_well_conditioned(matrix)))
