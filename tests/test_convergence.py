import importlib.util
import io
import math
import pathlib

import numpy as np
import pytest

from delayed_hedge import ContinuousMarket, discretize, solve_a
from delayed_hedge.convergence import (
    CSV_FORMAT,
    Table,
    build_bn,
    figure1_data,
    figure2_data,
    l2_distance_to_kappa,
    write_csv,
)
from delayed_hedge.kernel import _piece, limit_value, smooth_pieces, spec_for_market

ROOT = pathlib.Path(__file__).resolve().parents[1]


def cm(ratio, H=0.2):
    return ContinuousMarket(H=H, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(ratio))


def test_build_bn_zero_for_consistent_market():
    assert np.array_equal(build_bn(cm(1.0), 50), np.zeros(50))


def test_build_bn_head_is_scaled_root():
    values = build_bn(cm(2.0), 50)
    m = discretize(cm(2.0), 50)
    a_n = solve_a(m)
    np.testing.assert_allclose(values[: m.delay], 50 * a_n, rtol=0, atol=0)


def test_build_bn_approaches_kernel():
    market = cm(0.5)
    spec = spec_for_market(market)
    values = build_bn(market, 1000)
    from delayed_hedge.kernel import kappa

    ts = np.linspace(0.001, 0.999, 400)
    sup_kappa = max(abs(kappa(t, spec)) for t in ts)
    gap = max(
        abs(values[math.floor(t * 1000)] - kappa(t, spec)) for t in ts if abs(t * 1000 - round(t * 1000)) > 1e-6
    )
    assert gap < 0.05 * sup_kappa


def test_l2_distance_zero_when_both_vanish():
    market = cm(1.0)
    assert l2_distance_to_kappa(build_bn(market, 100), spec_for_market(market)) == 0.0


def test_l2_distance_shrinks():
    market = cm(2.0)
    spec = spec_for_market(market)
    d100 = l2_distance_to_kappa(build_bn(market, 100), spec)
    d800 = l2_distance_to_kappa(build_bn(market, 800), spec)
    assert d800 < d100


def _pieces_by_sorting(breaks, spec):
    """(left, right, k, step) built by sorting: the breaks and the multiples of H inside them
    through np.unique, and each left end's step found by searchsorted."""
    multiples = np.arange(spec.K + 1) * spec.H
    cuts = np.unique(np.concatenate([breaks, multiples[(breaks[0] < multiples) & (multiples < breaks[-1])]]))
    k = np.minimum(np.floor(0.5 * (cuts[:-1] + cuts[1:]) / spec.H).astype(int), spec.K - 1)
    step = np.searchsorted(breaks, cuts[:-1], side="right") - 1
    return cuts[:-1], cuts[1:], k, step


@pytest.mark.parametrize("n", [2, 3, 7, 10, 33, 99, 100, 101, 2500, 10_000])
@pytest.mark.parametrize("H", [0.2, 0.25, 0.3, 0.333, 1.0])
def test_l2_pieces_match_the_sorted_construction_bit_for_bit(n, H):
    steps = np.arange(n + 1) / n
    spec = spec_for_market(cm(2.0, H))
    got, want = smooth_pieces(steps, spec), _pieces_by_sorting(steps, spec)
    for name, g, w in zip(("left", "right", "k", "step"), got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_l2_pieces_at_multiples_of_h_on_and_an_ulp_off_a_step_end():
    steps = np.arange(11) / 10
    assert steps[2] == 0.2 and steps[6] == math.nextafter(3 * 0.2, 0.0)
    left, right, _, step = smooth_pieces(steps, spec_for_market(cm(2.0, 0.2)))
    # 0.2 is a step end and adds no piece; 3 * 0.2 lies an ulp past 6/10 and cuts a sliver off step 6
    assert len(left) == 10 + 1 and left.tolist().count(0.2) == 1
    sliver = left.tolist().index(6 / 10)
    assert right[sliver] == 3 * 0.2 and step[sliver : sliver + 2].tolist() == [6, 6]


def _l2_per_step(values, spec, quadsteps=8):
    """Per-step L2 loop with scalar kernel evaluation at every Simpson node."""
    total = 0.0
    n = len(values)
    for k in range(n):
        lo, hi = k / n, (k + 1) / n
        breaks = sorted({lo, hi} | {j * spec.H for j in range(spec.K + 1) if lo < j * spec.H < hi})
        for left, right in zip(breaks[:-1], breaks[1:]):
            piece = min(int(math.floor(0.5 * (left + right) / spec.H)), spec.K - 1)
            nodes = np.linspace(left, right, 2 * quadsteps + 1)
            vals = np.array([(values[k] - _piece(t, piece, spec)) ** 2 for t in nodes.tolist()])
            h = (right - left) / (2 * quadsteps)
            total += h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
    return total


@pytest.mark.parametrize("n", [100, 333, 1000])
@pytest.mark.parametrize("H", [0.2, 0.15, 0.05, 0.02])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_l2_distance_matches_per_step_loop(n, H, ratio):
    market = cm(ratio, H)
    spec = spec_for_market(market)
    values = build_bn(market, n)
    assert l2_distance_to_kappa(values, spec) == pytest.approx(_l2_per_step(values, spec), rel=1e-12, abs=0)


@pytest.mark.parametrize("ratio,want", [(0.5, 5.489216188168056e-08), (2.0, 3.2341989421061374e-08)])
def test_l2_distance_at_n_1e4_keeps_the_value_of_the_per_block_simpson_calls(ratio, want):
    # the values at n = 10^4 of the per-block simpson calls with the series (commit 794c4e9)
    market = cm(ratio)
    assert l2_distance_to_kappa(build_bn(market, 10_000), spec_for_market(market)) == pytest.approx(want, rel=1e-12)


def test_l2_rate_is_one_over_n():
    for ratio in (0.5, 2.0):
        market = cm(ratio)
        spec = spec_for_market(market)
        scaled = [n * l2_distance_to_kappa(build_bn(market, n), spec) for n in (100, 200, 400, 800)]
        med = float(np.median(scaled))
        assert max(scaled) <= 3.0 * med
        assert min(scaled) >= med / 3.0


def test_figure1_header_contract():
    table = figure1_data(cm(2.0), ns=[100, 1000], grid=20)
    assert table.header == ["t", "kappa_shifted", "n100", "n1000"]
    assert table.columns.shape == (21, 4)


def test_figure1_zero_before_delay():
    table = figure1_data(cm(0.5), ns=[100], grid=200)
    t = table.columns[:, 0]
    early = t < 0.2 - 1.0 / 100
    assert np.all(table.columns[early][:, 1:] == 0.0)


def test_figure1_sign_of_shifted_kernel():
    table = figure1_data(cm(0.5), ns=[100], grid=200)
    t = table.columns[:, 0]
    assert np.all(table.columns[t >= 0.2, 1] <= 0.0)


def test_figure1_unshifted_columns_optional():
    table = figure1_data(cm(2.0), ns=[100], grid=10, include_unshifted=True)
    assert table.header == ["t", "kappa_shifted", "n100", "kappa", "n100_raw"]
    spec = spec_for_market(cm(2.0))
    np.testing.assert_allclose(
        table.columns[:, 3] - table.columns[:, 1], spec.level, rtol=1e-12
    )


def test_figure2_table():
    table = figure2_data([0.1, 0.2], [-1.0, 0.0, 1.0])
    assert table.header == ["H", "log_ratio", "U"]
    rows = table.columns
    at_zero = rows[rows[:, 1] == 0.0][:, 2]
    np.testing.assert_allclose(at_zero, -1.0, atol=1e-14)
    # monotone toward zero on each side
    for H in (0.1, 0.2):
        sub = rows[rows[:, 0] == H]
        assert sub[2, 2] >= sub[1, 2]  # U(1) >= U(0)
        assert sub[0, 2] >= sub[1, 2]  # U(-1) >= U(0)


def test_figure2_near_arbitrage_for_small_delay():
    table = figure2_data([0.01], [1.0])
    assert abs(table.columns[0, 2]) < 0.05


def _limit_values_cell_by_cell(h_grid, logratio_grid):
    return [
        limit_value(ContinuousMarket(H=H, theta=0.0, varsigma=1.0, varsigma_hat=math.exp(lr)))
        for H in sorted(h_grid)
        for lr in sorted(logratio_grid)
    ]


def test_figure2_cells_are_the_scalar_limit_values_on_the_figure_grid():
    h_grid = [round(0.02 * i, 10) for i in range(1, 51)]  # the grid of scripts/make_figures.py
    lr_grid = [round(-2.0 + 0.1 * i, 10) for i in range(41)]
    table = figure2_data(h_grid, lr_grid)
    assert table.columns[:, 2].tolist() == _limit_values_cell_by_cell(h_grid, lr_grid)
    assert table.columns[:, :2].tolist() == [[H, lr] for H in h_grid for lr in lr_grid]


def test_figure2_cells_are_the_scalar_limit_values_where_pow_and_product_differ():
    # Python's ** (libm pow) and numpy's v * v differ in the last bit for a few vols; the mesh
    # must square each vol as limit_value does
    rng = np.random.default_rng(20240607)
    candidates = rng.uniform(-3.0, 3.0, 20_000).tolist()
    odd = [lr for lr in candidates if math.exp(lr) ** 2 != math.exp(lr) * math.exp(lr)][:5]
    assert odd
    h_grid = rng.uniform(0.001, 1.0, 12).tolist() + [1.0]
    lr_grid = candidates[:30] + odd
    table = figure2_data(h_grid, lr_grid)
    assert table.columns[:, 2].tolist() == _limit_values_cell_by_cell(h_grid, lr_grid)


def test_write_csv_format():
    buf = io.StringIO()
    table = Table(header=["x", "y"], columns=np.array([[0.5, 1.0 / 3.0]]))
    write_csv(table, buf, metadata={"cmd": "demo", "n": 2})
    lines = buf.getvalue().splitlines(keepends=True)
    assert lines[0] == "# cmd=demo n=2\n"
    assert lines[1] == "x,y\n"
    assert lines[2] == "0.5,0.333333333333\n"


def _per_cell_csv(table: Table) -> str:
    """The writer ``write_csv`` replaced: one ``CSV_FORMAT`` call per cell."""
    lines = [",".join(table.header) + "\n"]
    lines += [",".join(CSV_FORMAT % x for x in row) + "\n" for row in table.columns]
    return "".join(lines)


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_write_csv_matches_the_per_cell_writer_byte_for_byte(rows):
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0 / 3.0, -2.5e-300, 1e300, 123456789012345.0,
              -1e-7, 5e-324, 3.7e12]
    columns = np.random.default_rng(rows).choice(values, size=(rows, 4))
    if rows:
        columns[0] = [math.nan, math.inf, -math.inf, -0.0]
    table = Table(header=["a", "b", "c", "d"], columns=columns)
    buf = io.StringIO()
    write_csv(table, buf)
    assert buf.getvalue().encode() == _per_cell_csv(table).encode()


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_write_csv_matches_the_per_cell_writer_on_the_figure_tables(name):
    if name == "fig1":
        table = figure1_data(cm(0.5), ns=[10, 100], grid=50, include_unshifted=True)
    else:
        table = figure2_data([0.1, 0.5], [-1.0, 0.0, 0.5])
    buf = io.StringIO()
    write_csv(table, buf)
    assert buf.getvalue() == _per_cell_csv(table)


def test_make_figures_reproduces_the_committed_tables(tmp_path, monkeypatch):
    found = importlib.util.spec_from_file_location("make_figures", ROOT / "scripts" / "make_figures.py")
    script = importlib.util.module_from_spec(found)
    found.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()

    def rows(path):
        return [line for line in path.read_bytes().splitlines(keepends=True) if not line.startswith(b"#")]

    for name in ("fig1_ratio0.5.csv", "fig1_ratio2.csv", "fig2.csv"):
        assert rows(tmp_path / name) == rows(ROOT / "out" / name), name
