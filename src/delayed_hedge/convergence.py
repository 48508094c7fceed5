"""Discretization bridge: scaled weight steps, L2 distance to the kernel,
and the data tables behind the two convergence figures.

The step function b^n takes the value n * b_{k+1} on [k/n, (k+1)/n) (last
interval closed); its squared L2 distance to kappa decays like 1/n, with the
non-smooth point at t = H contributing the dominant term.  The distance is
integrated over node arrays, one Simpson call per block of one kernel piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .kernel import KernelSpec, _piece, kappa, limit_value, simpson, smooth_pieces, spec_for_market
from .market import ContinuousMarket, discretize
from .solver import solve_a, weights_b

CSV_FORMAT = "%.12g"
_BLOCK_ROWS = 256  # pieces per Simpson call in l2_distance_to_kappa, bounding its node arrays
_QUADSTEPS = 8  # Simpson panels per smooth piece in l2_distance_to_kappa


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function on [0, 1] with n equal intervals."""

    n: int
    values: np.ndarray

    def __call__(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"t must lie in [0, 1], got {t}")
        k = min(int(math.floor(t * self.n)), self.n - 1)
        return float(self.values[k])


@dataclass(frozen=True, eq=False)
class Table:
    """Column-oriented result table with a fixed header order."""

    header: list
    columns: np.ndarray  # shape (rows, len(header))


def build_bn(c: ContinuousMarket, n: int) -> StepFunction:
    """Scaled weight steps b^n for the discretized market."""
    m = discretize(c, n)
    a = solve_a(m)
    b = weights_b(m, a, n)
    return StepFunction(n=n, values=n * b)


def l2_distance_to_kappa(f: StepFunction, spec: KernelSpec) -> float:
    """Squared L2[0, 1] distance between the step function and kappa.

    Integration splits at every step boundary and every multiple of H, with
    ``_QUADSTEPS`` Simpson panels per smooth piece; kappa is evaluated with the
    piece's own polynomial so breakpoints see one-sided limits.  One Simpson
    call takes up to ``_BLOCK_ROWS`` pieces of one kernel interval.
    """
    steps = np.arange(f.n + 1) / f.n
    left, right, k = smooth_pieces(steps, spec)
    levels = f.values[np.searchsorted(steps, left, side="right") - 1]  # the step holding each left end
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
    per n with n (b_ceil(tn) - a_n).  With ``include_unshifted`` the raw
    kappa and n*b columns are appended for the unshifted comparison.
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
    """CSV with an optional '#'-prefixed metadata line, '%.12g' values."""
    if metadata:
        stream.write("# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
    stream.write(",".join(table.header) + "\n")
    for row in table.columns:
        stream.write(",".join(CSV_FORMAT % x for x in row) + "\n")
