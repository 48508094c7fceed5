"""Tests of the benchmark harness itself: span arithmetic, seeded inputs,
failure counting and agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from delayed_hedge import dual, solver  # noqa: E402
from delayed_hedge.market import DiscreteMarket  # noqa: E402
from spans import Span, Tracer, layer_table, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 3.0, 1, 1),
        Span(3, "b", 2.0, 4.0, 1, 1),  # overlaps a: the union [1, 4] counts once
        Span(4, "c", 5.0, 6.0, 1, 1),
        Span(5, "d", 5.2, 5.5, 4, 1),  # grandchild: only c loses it
        Span(6, "e", 9.0, 12.0, 1, 1),  # runs past the parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert own[4] == pytest.approx(0.7)
    assert own[5] == pytest.approx(0.3)
    assert own[6] == pytest.approx(3.0)


def test_layer_table_counts_calls_and_takes_the_median_busy_time_per_round():
    def one_round(scale):
        return [
            Span(1, "op", 0.0, 4.0 * scale, None, 1),
            Span(2, "layer", 0.0, 1.0 * scale, 1, 1),
            Span(3, "layer", 1.0 * scale, 3.0 * scale, 1, 1),
        ]

    table = layer_table([one_round(1.0), one_round(2.0), one_round(10.0)])
    assert table["layer"] == {"calls": 2, "busy_s": pytest.approx(6.0)}
    assert table["op"]["busy_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_the_same_seed_gives_the_same_inputs(name):
    make = workloads.WORKLOADS[name].inputs
    assert make(run.DEFAULT_SEED) == make(run.DEFAULT_SEED)
    assert make(run.DEFAULT_SEED) != make(run.HELD_OUT_SEED)


@pytest.mark.parametrize("name", ["paths", "grid"])
def test_sizes_do_not_depend_on_the_seed(name):
    def shapes(seed):
        return [(i.market.n, i.market.delay, i.paths) for i in workloads.WORKLOADS[name].inputs(seed)]

    assert shapes(run.DEFAULT_SEED) == shapes(run.HELD_OUT_SEED)


def _market_checks():
    item = workloads.MarketItem(DiscreteMarket(n=8, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3), 100, 7)
    checks = workloads.Checks()
    workloads.market_op(Tracer(False), checks, item, dense_oracles=True)
    return checks


def test_a_correct_market_passes_every_check():
    checks = _market_checks()
    assert checks.attempted > 0 and checks.failed == 0


def test_a_wrong_strategy_fed_to_the_pathwise_check_raises_the_error_rate(monkeypatch):
    def scaled_strategy(m):
        w = solver.strategy(m)
        return dataclasses.replace(w, kernel=1.5 * w.kernel)

    monkeypatch.setattr(dual, "strategy", scaled_strategy)
    checks = _market_checks()
    assert checks.failed / checks.attempted > 0
    assert checks.by_name["dual.verification_pathwise"]["failed"] == 1


def test_traced_calls_give_spans_counts_and_allocation_peaks():
    tracer = Tracer(True)
    with tracer.op("op.test"):
        tracer.call("layer.f", lambda n: bytearray(n), 10**6)
        tracer.call("layer.f", lambda n: bytearray(n), 10)
        tracer.count("layer.f.work", 3)
    names = [s.name for s in tracer.spans]
    assert names.count("layer.f") == 2 and names.count("trace.alloc_probe") == 1
    assert tracer.peaks["layer.f"] >= 10**6
    assert tracer.counts["layer.f.work"] == 3


@pytest.mark.skipif(not (ROOT / "out").is_dir(), reason="figure CSVs not in this checkout")
def test_expected_csv_digests_match_the_committed_figures():
    for name, expected in workloads.EXPECTED_CSV.items():
        rows = [line for line in (ROOT / "out" / name).read_text().splitlines(keepends=True)
                if not line.startswith("#")]
        assert len(rows) == expected["rows"]
        assert hashlib.sha256("".join(rows).encode()).hexdigest() == expected["sha256"]


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_a_checkout_without_the_library_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
