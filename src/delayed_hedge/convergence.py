"""Discretization bridge: scaled weight steps, L2 distance to the kernel,
and the data tables behind the two convergence figures.

The step function b^n is held as its values n * b_{k+1} on [k/n, (k+1)/n)
(last interval closed); its squared L2 distance to kappa decays like 1/n,
with the non-smooth point at t = H dominating.  The pieces are the steps cut
at the at most K multiples of H inside (0, 1), which ``kernel.smooth_pieces``
inserts into the sorted step ends, with each piece's step read off the
number of insertions before it: no sort and no search over the pieces.  The
distance is integrated block by block: up to ``_BLOCK_ROWS`` pieces of one
kernel interval at a time, their Simpson nodes evaluated in place in two
buffers reused across blocks, so beyond the O(n) arrays of piece ends and
step values its memory is O(block).
Figure 2 is one pass of the limit-value formula over the whole
(H, log-ratio) mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .kernel import (
    KernelSpec,
    _alpha_core,
    _interval_values,
    _limit_exponent,
    kappa,
    limit_value,
    simpson_weights,
    smooth_pieces,
    spec_for_market,
)
from .market import ContinuousMarket, discretize
from .solver import solve_a, weights_b

CSV_FORMAT = "%.12g"
# pieces per block in l2_distance_to_kappa: its two node buffers hold 17 _BLOCK_ROWS floats each,
# so beyond the O(n) piece ends and step values its memory is O(block).  Larger blocks save
# little time and raise the process's peak RSS; smaller ones pay numpy's per-call overhead.
_BLOCK_ROWS = 512
_QUADSTEPS = 8  # Simpson panels per smooth piece in l2_distance_to_kappa


@dataclass(frozen=True, eq=False)
class Table:
    """Column-oriented result table with a fixed header order."""

    header: list
    columns: np.ndarray  # shape (rows, len(header))


def build_bn(c: ContinuousMarket, n: int) -> np.ndarray:
    """Scaled weights n*b_1..n*b_n of the discretized market: the values of b^n."""
    m = discretize(c, n)
    a = solve_a(m)
    return n * weights_b(m, a, n)


def l2_distance_to_kappa(values: np.ndarray, spec: KernelSpec) -> float:
    """Squared L2[0, 1] distance between kappa and the step function b^n that
    takes ``values[k]`` on [k/n, (k+1)/n), n = len(values).

    Integration splits at every step boundary and every multiple of H, with
    ``_QUADSTEPS`` Simpson panels per smooth piece; kappa is evaluated with the
    piece's own polynomial so breakpoints see one-sided limits.  Blocks of up
    to ``_BLOCK_ROWS`` pieces of one kernel interval are evaluated in place in
    two reused buffers (``kernel._interval_values``), and each piece's Simpson
    sum is one reduction with ``simpson_weights``.
    """
    n = len(values)
    steps = np.arange(n + 1) / n
    left, right, k, step = smooth_pieces(steps, spec)
    levels = values[step]
    fractions = np.arange(2 * _QUADSTEPS + 1)[:, None] / (2 * _QUADSTEPS)
    weights = simpson_weights(_QUADSTEPS)
    changes = (np.flatnonzero(np.diff(k)) + 1).tolist()
    bounds = sorted({0, *changes, *range(_BLOCK_ROWS, len(k), _BLOCK_ROWS), len(k)})
    nodes = np.empty(len(fractions) * min(_BLOCK_ROWS, len(k)))
    squares = np.empty_like(nodes)
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = int(k[lo])
        width = right[lo:hi] - left[lo:hi]
        # contiguous (node, piece) views of the two buffers; node i of a piece sits at
        # t = left + width i / 16, given to the evaluator as alpha (t - kH)
        v, f = (buffer[: len(fractions) * (hi - lo)].reshape(len(fractions), hi - lo) for buffer in (nodes, squares))
        np.multiply(fractions, spec.alpha * width, out=v)
        v += spec.alpha * (left[lo:hi] - piece * spec.H)
        _interval_values(v, piece, spec, out=f)
        f -= levels[lo:hi]
        f *= f
        total += np.einsum("i,i->", width, np.einsum("j,ji->i", weights, f))
    # h / 3 with h = width / (2 _QUADSTEPS)
    return float(total) / (6 * _QUADSTEPS)


def figure1_data(
    c: ContinuousMarket,
    ns: Sequence[int],
    grid: int = 500,
    include_unshifted: bool = False,
) -> Table:
    """Scaled discrete weights against the shifted kernel on a uniform t-grid.

    Columns: t, kappa_shifted = kappa_t - alpha/(1 - alpha H), then one column
    per n with n (b_{k+1} - a_n), k = min(floor(t n), n - 1): the weight of
    the step of b^n that holds t, with the floor taken of the float product
    t * n.  With ``include_unshifted`` the raw kappa and n*b columns are
    appended for the unshifted comparison.
    """
    spec = spec_for_market(c)
    ts = np.linspace(0.0, 1.0, grid + 1)
    kappa_vals = np.array([kappa(t, spec) for t in ts])
    header = ["t", "kappa_shifted"] + [f"n{n}" for n in ns]
    cols = [ts, kappa_vals - spec.level]
    raw_cols = []
    for n in ns:
        m = discretize(c, n)
        a_n = solve_a(m)
        b = weights_b(m, a_n, n)
        idx = np.minimum(np.floor(ts * n).astype(int), n - 1)
        cols.append(n * (b[idx] - a_n))
        raw_cols.append(n * b[idx])
    if include_unshifted:
        header += ["kappa"] + [f"n{n}_raw" for n in ns]
        cols += [kappa_vals] + raw_cols
    return Table(header=header, columns=np.column_stack(cols))


def figure2_data(h_grid: Sequence[float], logratio_grid: Sequence[float]) -> Table:
    """Limit value U over (H, log(varsigma_hat / varsigma)) at zero drift, one row per
    (H, log-ratio) cell, H then log-ratio ascending.

    The whole mesh is one pass of kernel's alpha and limit-value cores: per
    log-ratio, varsigma_hat = exp(log-ratio) and its square stay Python floats
    (``math.exp`` and ``**``), and so does each cell's final ``math.exp``, so
    every cell keeps the bits of a ``limit_value`` call.  A grid that holds a
    cell whose market is refused, or one whose value is not finite, is
    evaluated cell by cell by ``limit_value`` on each built market, which
    raises the error of the first bad cell in row order (or gives today's NaN).
    """
    hs, lrs = sorted(h_grid), sorted(logratio_grid)
    theta, varsigma = 0.0, 1.0

    def market(H, lr):
        return ContinuousMarket(H=H, theta=theta, varsigma=varsigma, varsigma_hat=math.exp(lr))

    values = None
    try:
        # each log-ratio checked once, at H = 1; each H on its own
        pricing_vol2 = np.array([market(1.0, lr).varsigma_hat ** 2 for lr in lrs])
        if all(0.0 < H <= 1.0 for H in hs):
            delays, vol2 = np.array(hs, dtype=float)[:, None], varsigma**2
            with np.errstate(all="ignore"):  # a cell that is not finite goes to limit_value below
                a = _alpha_core(delays, vol2 / pricing_vol2)
                exponent, one_minus = _limit_exponent(delays, a, -theta**2 / vol2, vol2, pricing_vol2)
                scale = np.sqrt(one_minus).ravel()
            values = -np.array([math.exp(e) for e in exponent.ravel().tolist()]) * scale
    except (ArithmeticError, DomainError):  # math.exp or ** overflowed, or a log-ratio is refused
        pass
    if values is None or not np.isfinite(values).all():
        values = [limit_value(market(H, lr)) for H in hs for lr in lrs]
    columns = np.column_stack([np.repeat(hs, len(lrs)), np.tile(lrs, len(hs)), values])
    return Table(header=["H", "log_ratio", "U"], columns=columns)


def write_csv(table: Table, stream: IO[str], metadata: Mapping | None = None) -> None:
    """CSV with an optional '#'-prefixed metadata line, '%.12g' values.

    Every row is formatted by one ``%`` on the repeated row template, which
    applies ``CSV_FORMAT`` to each cell as a per-cell call would.
    """
    if metadata:
        stream.write("# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
    stream.write(",".join(table.header) + "\n")
    template = ",".join([CSV_FORMAT] * len(table.header)) + "\n"
    stream.write(template * len(table.columns) % tuple(table.columns.ravel().tolist()))
