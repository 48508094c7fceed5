"""Discretization bridge: scaled weight steps, L2 distance to the kernel,
and the data tables behind the two convergence figures.

The step function b^n is held as its values n * b_{k+1} on [k/n, (k+1)/n)
(last interval closed); its squared L2 distance to kappa decays like 1/n,
with the non-smooth point at t = H dominating.  The distance is integrated
over node arrays, one Simpson call per block of one kernel piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .kernel import KernelSpec, _piece, kappa, limit_value, simpson, smooth_pieces, spec_for_market
from .market import ContinuousMarket, discretize
from .solver import solve_a, weights_b

CSV_FORMAT = "%.12g"
_BLOCK_ROWS = 256  # pieces per Simpson call in l2_distance_to_kappa, bounding its node arrays
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
    piece's own polynomial so breakpoints see one-sided limits.  One Simpson
    call takes up to ``_BLOCK_ROWS`` pieces of one kernel interval.
    """
    n = len(values)
    steps = np.arange(n + 1) / n
    left, right, k = smooth_pieces(steps, spec)
    levels = values[np.searchsorted(steps, left, side="right") - 1]  # the step holding each left end
    blocks = np.union1d(np.flatnonzero(np.diff(k)) + 1, np.arange(_BLOCK_ROWS, len(k), _BLOCK_ROWS))
    total = 0.0
    for lo, hi, ks, level in zip(*(np.split(a, blocks) for a in (left, right, k, levels[:, None]))):
        total += simpson(lambda t: (level - _piece(t, ks[0], spec)) ** 2, lo, hi, _QUADSTEPS).sum()
    return total


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
    """Limit value U over (H, log(varsigma_hat / varsigma)) at zero drift."""
    rows = []
    for H in sorted(h_grid):
        for lr in sorted(logratio_grid):
            market = ContinuousMarket(H=H, theta=0.0, varsigma=1.0, varsigma_hat=math.exp(lr))
            rows.append((H, lr, limit_value(market)))
    return Table(header=["H", "log_ratio", "U"], columns=np.array(rows))


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
