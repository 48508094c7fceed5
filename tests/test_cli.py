import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from delayed_hedge import mc
from delayed_hedge.cli import MAX_POINTS, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_solve_no_delay(capsys):
    code, doc = run_json(
        capsys, "solve", "--n", "4", "--delay", "0", "--mu", "0", "--sigma", "1", "--sigma-hat", "2"
    )
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["a"] == -0.75
    assert doc["static_coeff"] == -0.375
    assert doc["config"]["n"] == 4
    assert doc["c_hat"] == pytest.approx(-math.log(-doc["value"]), rel=1e-12)


def test_solve_consistent_market(capsys):
    code, doc = run_json(
        capsys, "solve", "--n", "6", "--delay", "2", "--mu", "0.3", "--sigma", "1", "--sigma-hat", "1"
    )
    assert code == 0
    assert doc["a"] == 0.0
    assert doc["value"] == pytest.approx(-math.exp(-6 * 0.09 / 2.0), rel=1e-14)


def test_solve_rejects_bad_delay(capsys):
    code = main(["solve", "--n", "4", "--delay", "4", "--mu", "0", "--sigma", "1", "--sigma-hat", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "delay must be < n" in err


def test_simulate_deterministic(capsys):
    argv = [
        "simulate", "--n", "4", "--delay", "1", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.2", "--paths", "500", "--seed", "11",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n_paths"] == 500
    assert doc["analytic"] == pytest.approx(doc["value_formula"], rel=1e-10)


def test_simulate_consistent_market_analytic(capsys):
    code, doc = run_json(
        capsys, "simulate", "--n", "5", "--delay", "2", "--mu", "0.2", "--sigma", "1",
        "--sigma-hat", "1", "--paths", "200", "--seed", "1",
    )
    assert code == 0
    assert doc["analytic"] == pytest.approx(-math.exp(-5 * 0.04 / 2.0), rel=1e-12)


def test_simulate_perturbed_is_suboptimal(capsys):
    code, doc = run_json(
        capsys, "simulate", "--n", "5", "--delay", "2", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.3", "--paths", "20000", "--seed", "2", "--perturb", "1.5",
    )
    assert code == 0
    assert doc["empirical_mean"] <= doc["value_formula"] + 4 * doc["std_error"]


def test_simulate_reports_its_distance_from_the_oracle_in_standard_errors(capsys):
    code, doc = run_json(
        capsys, "simulate", "--n", "5", "--delay", "2", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.3", "--paths", "2000", "--seed", "3",
    )
    assert code == 0
    assert doc["std_error"] > 0.0
    assert doc["z_vs_analytic"] == (math.log(-doc["analytic"]) - doc["log_neg_mean"]) / doc["relative_std_error"]
    assert abs(doc["z_vs_analytic"]) < 5.0
    assert list(doc)[-3:] == ["value_formula", "z_vs_analytic", "generator"]


def test_simulate_log_scale_values_stay_finite_where_the_values_underflow(capsys):
    code, doc = run_json(
        capsys, "simulate", "--n", "60000", "--delay", "3", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.3", "--paths", "100", "--seed", "1",
    )
    assert code == 0
    assert doc["value_formula"] == 0.0 and doc["analytic"] == 0.0  # -exp(-c_hat) underflows: c_hat is about 1070
    assert math.isfinite(doc["log_neg_value"]) and doc["log_neg_value"] < -745.0
    assert doc["log_neg_analytic"] == pytest.approx(doc["log_neg_value"], rel=1e-13)


@pytest.mark.parametrize("perturb", [[], ["--perturb", "1.5"]])
def test_simulate_log_scale_values_are_the_logs_of_the_values_where_representable(capsys, perturb):
    code, doc = run_json(
        capsys, "simulate", "--n", "5", "--delay", "2", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.3", "--paths", "100", "--seed", "42", *perturb,
    )
    assert code == 0
    assert doc["log_neg_value"] == pytest.approx(math.log(-doc["value_formula"]), rel=1e-13)
    assert doc["log_neg_analytic"] == pytest.approx(math.log(-doc["analytic"]), rel=1e-13)


def test_simulate_leaves_the_distance_out_when_the_standard_error_is_zero(capsys):
    # mu = 0 and equal volatilities: a zero strategy, so every path has V = 0
    code, out = run_cli(
        capsys, "simulate", "--n", "4", "--delay", "1", "--mu", "0", "--sigma", "1",
        "--sigma-hat", "1", "--paths", "100", "--seed", "1",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["std_error"] == 0.0 and doc["analytic"] == -1.0
    assert "z_vs_analytic" not in doc
    assert "NaN" not in out and "Infinity" not in out


def test_simulate_requires_enough_paths(capsys):
    code = main(
        ["simulate", "--n", "4", "--delay", "1", "--mu", "0", "--sigma", "1",
         "--sigma-hat", "1", "--paths", "10"]
    )
    assert code == 2


def test_kernel_csv_consistent_ratio(capsys):
    code, out = run_cli(capsys, "kernel", "--H", "0.2", "--ratio", "1", "--grid", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "t,kappa,gamma_kernel"
    assert len(lines) == 2 + 11
    for line in lines[2:]:
        _, kap, gam = line.split(",")
        assert float(kap) == 0.0 and float(gam) == 0.0


def test_kernel_csv_zero_weights_before_delay(capsys):
    code, out = run_cli(capsys, "kernel", "--H", "0.2", "--ratio", "2", "--grid", "20")
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        t, _, gam = (float(p) for p in line.split(","))
        if t < 0.2:
            assert gam == 0.0


def test_kernel_csv_at_full_delay_ends_after_the_jump(capsys):
    # H = 1: kappa(1) = alpha H level = 0.5 at ratio 2, where the level is -0.5
    code, out = run_cli(capsys, "kernel", "--H", "1", "--ratio", "2", "--grid", "4")
    assert code == 0
    rows = [[float(p) for p in line.split(",")] for line in out.strip().splitlines()[2:]]
    assert [row[0] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(row[1:] == [-0.5, 0.0] for row in rows[:-1])
    assert rows[-1][1:] == [pytest.approx(0.5, rel=1e-12), pytest.approx(1.0, rel=1e-12)]


# SHA-256 of the rows below the '#' line as the ndarray-based scalar loops wrote them (commit
# 3733e8d).  K = 50 runs the interval series far deeper than the K = 5 of the fig1 tables.
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--H", "0.02", "--ratio", "0.5", "--grid", "1000"],
         "e4b29ea9cf70ec852fa0ae0cef3641c0cabe0ef3deeb0e9661cab117318f3a0d"),
        (["--H", "0.2", "--ratio", "2", "--grid", "500"],
         "3cf37b0caed39a97057b3fa85c9c91bff1e34ddafc5904d4651567b04c968031"),
    ],
)
def test_kernel_csv_rows_keep_their_bits(capsys, argv, sha256):
    code, out = run_cli(capsys, "kernel", *argv)
    assert code == 0
    rows = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == sha256


def test_limit_consistent(capsys):
    code, doc = run_json(capsys, "limit", "--H", "0.2", "--theta", "0", "--vsigma", "1", "--vsigma-hat", "1")
    assert code == 0
    assert doc["limit_value"] == -1.0
    assert doc["alpha"] == 0.0


def test_limit_drift_only(capsys):
    code, doc = run_json(capsys, "limit", "--H", "0.2", "--theta", "0.5", "--vsigma", "1", "--vsigma-hat", "1")
    assert code == 0
    assert doc["limit_value"] == pytest.approx(-math.exp(-0.125), rel=1e-14)


def test_limit_consistent_with_solve_at_large_n(capsys):
    code, limit_doc = run_json(
        capsys, "limit", "--H", "0.2", "--theta", "0", "--vsigma", "1", "--vsigma-hat", "1.4"
    )
    n = 10000
    code2, solve_doc = run_json(
        capsys, "solve", "--n", str(n), "--delay", str(math.ceil(0.2 * n)), "--mu", "0",
        "--sigma", str(1 / math.sqrt(n)), "--sigma-hat", str(1.4 / math.sqrt(n)),
    )
    assert code == code2 == 0
    assert solve_doc["value"] == pytest.approx(limit_doc["limit_value"], rel=0.01)


def test_fig1_header_contract(capsys):
    code, out = run_cli(capsys, "fig1", "--H", "0.2", "--ratio", "0.5", "--ns", "100,1000", "--grid", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "t,kappa_shifted,n100,n1000"


def test_fig1_at_full_delay_clamps_to_n_minus_1(capsys):
    code, out = run_cli(capsys, "fig1", "--H", "1", "--ratio", "2", "--ns", "10,100", "--grid", "10")
    assert code == 0
    rows = [[float(p) for p in line.split(",")] for line in out.strip().splitlines()[2:]]
    assert len(rows) == 11
    assert all(math.isfinite(x) for row in rows for x in row)


def test_fig2_default_row(capsys):
    code, out = run_cli(capsys, "fig2", "--h-grid", "0.2,0.4", "--logratio-grid=-1,0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "H,log_ratio,U"
    rows = [tuple(float(p) for p in line.split(",")) for line in lines[2:]]
    assert len(rows) == 6
    for h, lr, u in rows:
        if lr == 0.0:
            assert u == -1.0


@pytest.mark.parametrize(
    "grids,message",
    [
        (["--h-grid", "0.5", "--logratio-grid=710"], "floating-point error at extreme inputs: math range error"),
        (["--h-grid", "0.5", "--logratio-grid=400"],
         "varsigma^2 / varsigma_hat^2 must be finite and positive, got (1.0 / 5.221469689764144e+173)^2"),
        (["--h-grid", "0.5", "--logratio-grid=nan"], "varsigma_hat must be positive, got nan"),
        (["--h-grid", "0.5", "--logratio-grid=-300"], "result is not finite: the table holds NaN or infinite values"),
        (["--h-grid", "0:1:0.5"], "H must lie in (0, 1], got 0.0"),
        # the first bad cell in row order (H, then log-ratio, both sorted) gives the error
        (["--h-grid", "0.5,0", "--logratio-grid=1,400"], "H must lie in (0, 1], got 0.0"),
        (["--h-grid", "0.5,0", "--logratio-grid=710"], "floating-point error at extreme inputs: math range error"),
        (["--h-grid", "0.5", "--logratio-grid=710,400,-300"],
         "varsigma^2 / varsigma_hat^2 must be finite and positive, got (1.0 / 5.221469689764144e+173)^2"),
        (["--h-grid", "0.5", "--logratio-grid=-300,710"], "floating-point error at extreme inputs: math range error"),
    ],
)
def test_fig2_bad_grid_exits_2_with_the_first_bad_cells_error(capsys, grids, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["fig2", *grids])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_kernel_suite(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "kernel")
    assert code == 0
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "kernel.ck_vs_closed_forms" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_matrix_small_grid(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "matrix", "--grid-size", "3")
    assert code == 0
    assert doc["all_passed"] is True


def test_verify_matrix_times_its_suite_on_every_check(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "matrix")
    assert code == 0
    seconds = {c["seconds"] for c in doc["checks"]}
    assert len(seconds) == 1  # every check carries the one suite's wall time
    (suite_seconds,) = seconds
    assert math.isfinite(suite_seconds) and suite_seconds >= 0.0


def test_verify_dual_small_grid_threaded(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "dual", "--grid-size", "2", "--threads", "2")
    assert code == 0
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"dual.verification_pathwise", "dual.marginal"}


def test_verify_reports_a_non_finite_residual_as_a_failed_check(capsys, monkeypatch):
    from delayed_hedge import verify

    bad = verify.CheckResult("stub.residual", False, math.nan, 1e-9)
    monkeypatch.setitem(verify.SUITES, "matrix", lambda grid_size: [bad])
    code, doc = run_json(capsys, "verify", "--suite", "matrix")
    assert code == 1
    assert doc["all_passed"] is False
    (check,) = doc["checks"]
    seconds = check.pop("seconds")
    assert math.isfinite(seconds) and seconds >= 0.0
    assert check == {"name": "stub.residual", "passed": False, "worst_residual": None, "tolerance": 1e-9,
                     "worst_at": None}


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "run.json"
    code = main(["limit", "--H", "0.5", "--vsigma", "1", "--vsigma-hat", "2", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["config"]["H"] == 0.5


@pytest.mark.parametrize(
    "argv,target,reason",
    [
        (["solve", "--n", "4", "--delay", "1", "--sigma", "1", "--sigma-hat", "1.3"],
         "missing/x.json", "No such file or directory"),
        (["fig2", "--h-grid", "0.5", "--logratio-grid", "0"], ".", "Is a directory"),
    ],
)
def test_out_to_an_unwritable_path_exits_2_with_one_line(tmp_path, capsys, argv, target, reason):
    path = tmp_path / target
    code = main(argv + ["--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {path}: {reason}\n"


MARKET =["--n", "4", "--delay", "1", "--sigma", "1", "--sigma-hat", "1.3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "4", "--delay", "1", "--mu", "nan", "--sigma", "1", "--sigma-hat", "1"],
        ["solve", "--n", "4", "--delay", "1", "--sigma", "1", "--sigma-hat", "1e-200"],
        ["limit", "--H", "0.2", "--theta", "nan", "--vsigma", "1", "--vsigma-hat", "1"],
        ["limit", "--H", "0.2", "--vsigma", "1e-200", "--vsigma-hat", "1"],
        ["fig1", "--ratio", "2", "--ns", "abc"],
        ["fig2", "--h-grid", "0.1:0.2:0"],
        ["fig2", "--h-grid", "0.2:0.1:-0.1"],
        ["kernel", "--H", "0.2", "--ratio", "-1"],
        ["kernel", "--H", "0.2", "--ratio", "inf"],
        ["kernel", "--H", "1e-6", "--ratio", "2"],
        ["fig1", "--H", "1e-6", "--ratio", "2"],
        ["simulate", *MARKET, "--seed", "-1"],
        ["simulate", *MARKET, "--seed", str(2**64)],
        ["simulate", *MARKET, "--paths", "1000", "--perturb", "nan"],
        ["simulate", *MARKET, "--paths", str(mc.MAX_PATH_STEPS // 4 + 1)],
        ["solve", *MARKET, "--threads", "0"],
        ["solve", *MARKET, "--s0", "inf"],
        ["simulate", *MARKET, "--s0", "nan"],
        ["solve", "--n", str(MAX_POINTS + 2), "--delay", "1", "--sigma", "1", "--sigma-hat", "1.3"],
        ["kernel", "--H", "0.2", "--ratio", "2", "--grid", str(MAX_POINTS)],
        ["fig1", "--ratio", "2", "--grid", str(MAX_POINTS)],
        ["fig1", "--ratio", "2", "--ns", f"{MAX_POINTS},2"],
        ["fig1", "--ratio", "2", "--ns", "2,2", "--grid", str(MAX_POINTS // 2)],
        ["fig2", "--h-grid", "0:1:1e-12"],
        ["fig2", "--h-grid", "0.001:1:0.001", "--logratio-grid=-2:2:0.001"],
        ["simulate", "--n", "8", "--delay", "1", "--mu", "0.1", "--sigma", "1", "--sigma-hat", "2",
         "--paths", "100", "--perturb", "-50", "--seed", "1"],
        ["verify", "--suite", "matrix", "--grid-size", "-5"],
        ["verify", "--suite", "matrix", "--grid-size", "0"],
        ["kernel", "--H", "0.02", "--ratio", "1e16"],
        ["solve", "--n", "3", "--delay", "1", "--sigma", "1", "--sigma-hat", "1.3", "--mu", "1e308"],
        ["limit", "--H", "0.5", "--theta", "1e200", "--vsigma", "1", "--vsigma-hat", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert not re.search(r"\(\d+, '", captured.err)  # no exception args tuple such as (34, '...')


def test_threads_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("DELAYED_HEDGE_THREADS", "abc")
    code, doc = run_json(capsys, "limit", "--H", "0.2", "--vsigma", "1", "--vsigma-hat", "1")
    assert code == 0
    assert doc["config"]["threads"] == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "delayed_hedge", "verify", "--suite", "matrix"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


def test_import_loads_no_optimizer_until_the_brute_force_oracle_runs():
    code = (
        "import sys, delayed_hedge, delayed_hedge.cli, delayed_hedge.verify\n"
        "print('scipy.optimize' in sys.modules)\n"
        "delayed_hedge.brute_force_optimum(delayed_hedge.DiscreteMarket(2, 1, 0.0, 1.0, 1.0))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_import_loads_neither_scipy_linalg_nor_scipy_special():
    code = (
        "import sys, delayed_hedge, delayed_hedge.cli, delayed_hedge.verify\n"
        "print(*(name in sys.modules for name in ('scipy.linalg', 'scipy.special')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_production_paths_load_no_scipy_module():
    code = (
        "import contextlib, io, sys\n"
        "from delayed_hedge import DiscreteMarket, cli, dual, mc, solver\n"
        "m = DiscreteMarket(n=12, delay=2, mu=0.1, sigma=1.0, sigma_hat=1.3)\n"
        "batch = mc.generate(m, 50, seed=1)\n"
        "mc.estimate_utility(batch, solver.strategy(m), m)\n"
        "dm = dual.build_dual(m)\n"
        "dual.relative_entropy(dm, m)\n"
        "assert dual.check_delayed_martingale(dm, m.delay, 1e-10)\n"
        "dual.verification_residual(m, batch.increments)\n"
        "market = ['--n', '12', '--delay', '2', '--mu', '0.1', '--sigma', '1', '--sigma-hat', '1.3']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['solve', *market]) == 0\n"
        "    assert cli.main(['simulate', *market, '--paths', '200']) == 0\n"
        "    assert cli.main(['simulate', *market, '--paths', '200', '--perturb', '1.5']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_kernel_at_an_extreme_ratio_names_the_ratio(capsys):
    code = main(["kernel", "--H", "0.02", "--ratio", "1e16"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "1e+16" in err


def test_verify_dual_suite_reaches_n_1e5_without_dense_oracles(capsys, monkeypatch):
    from delayed_hedge import dual, toeplitz

    def no_dense(*args, **kwargs):
        raise AssertionError("the dual suite called a dense oracle")

    for name in ("inverse_via_v", "band_to_dense", "dense_inverse", "dense_det"):
        monkeypatch.setattr(toeplitz, name, no_dense)
    monkeypatch.setattr(toeplitz.SymToeplitz, "to_dense", no_dense)
    built = []
    build_dual = dual.build_dual
    monkeypatch.setattr(dual, "build_dual", lambda m: built.append((m.n, m.delay)) or build_dual(m))
    code, doc = run_json(capsys, "verify", "--suite", "dual", "--grid-size", "1")
    assert code == 0
    assert doc["all_passed"] is True
    # the large markets, D = n / 5 last, then the two log |A| routes markets
    assert built[-5:] == [(10**4, 20), (10**5, 20), (10**4, 2000), (10**6, 20), (10**6, 200)]


def test_simulate_at_the_analytic_cap_runs_the_oracle(capsys):
    n = mc.DURBIN_STEP_BUDGET + 1  # the longest horizon a full, uncertified recursion stays within
    code, doc = run_json(
        capsys, "simulate", "--n", str(n), "--delay", "20", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "1.3", "--paths", "100", "--seed", "1",
    )
    assert code == 0
    assert doc["analytic"] == pytest.approx(doc["value_formula"], rel=1e-10)
    assert "analytic_skipped" not in doc


def test_verify_convergence_suite(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "convergence")
    assert code == 0
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "convergence.limit_gap_at_1e4",
        "convergence.an_rate_fitted_C",
        "convergence.l2_rate_factor",
        "convergence.fig1_sup_gap",
        "convergence.fig1_signs",
        "convergence.fig2_equal_vols",
        "convergence.fig2_monotone",
        "convergence.fig2_small_H",
    ]


@pytest.mark.parametrize(
    "argv, committed",
    [
        (["fig1", "--H", "0.2", "--ratio", "0.5", "--ns", "100,1000"], "fig1_ratio0.5.csv"),
        (["fig2", "--h-grid", "0.02:1.0:0.02", "--logratio-grid=-2.0:2.0:0.1"], "fig2.csv"),
    ],
)
def test_readme_figure_commands_reproduce_the_committed_tables(capsys, argv, committed):
    code, out = run_cli(capsys, *argv)
    assert code == 0

    def rows(text):
        return [line for line in text.splitlines(keepends=True) if not line.startswith("#")]

    assert rows(out) == rows((ROOT / "out" / committed).read_text(encoding="utf-8"))


def test_simulate_reports_a_non_integrable_strategy_without_analytic(capsys):
    code, doc = run_json(
        capsys, "simulate", "--n", "8", "--delay", "1", "--mu", "0.1", "--sigma", "1",
        "--sigma-hat", "0.5", "--paths", "100", "--perturb", "5", "--seed", "1",
    )
    assert code == 0
    assert doc["analytic"] is None
    assert "analytic_skipped" not in doc and "z_vs_analytic" not in doc
    assert all(math.isfinite(doc[k]) for k in ("empirical_mean", "std_error", "ess"))


def test_simulate_above_the_analytic_cap_skips_the_oracle(capsys, monkeypatch):
    # a budget of 32 uncertified steps stands in for the full one, so no full-size recursion runs
    monkeypatch.setattr(mc, "DURBIN_STEP_BUDGET", 32)
    argv = ["simulate", "--n", "200", "--delay", "3", "--mu", "0.1", "--sigma", "1", "--sigma-hat", "1.3",
            "--paths", "100", "--seed", "1"]
    code, doc = run_json(capsys, *argv)
    assert code == 0  # the optimal strategy's column is certified by order D + 1, within the budget
    assert doc["analytic"] == pytest.approx(doc["value_formula"], rel=1e-10)
    assert "analytic_skipped" not in doc
    code, doc = run_json(capsys, *argv, "--perturb", "1.5")  # a scaled kernel has no vanishing tail
    assert code == 0
    assert doc["analytic"] is None
    assert "DURBIN_STEP_BUDGET = 32" in doc["analytic_skipped"]
    assert list(doc)[-3:] == ["value_formula", "analytic_skipped", "generator"]


# One or two flags of a cheap valid command take one of these; "huge" values sit past every cap.
FUZZ_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "-1e300", str(10**30), "abc", "",
    "1:0:0.1", "0:1:1e-12", "0:1e300:1", "1,,2",
]
FUZZ_COMMANDS = {
    "solve": {"--n": "8", "--delay": "2", "--mu": "0.1", "--sigma": "1", "--sigma-hat": "1.3"},
    "simulate": {"--n": "8", "--delay": "1", "--mu": "0.1", "--sigma": "1", "--sigma-hat": "2",
                 "--paths": "200", "--seed": "1", "--perturb": "1.5"},
    "verify": {"--suite": "matrix", "--grid-size": "2"},
    "kernel": {"--H": "0.2", "--ratio": "2", "--grid": "50"},
    "limit": {"--H": "0.2", "--theta": "0.1", "--vsigma": "1", "--vsigma-hat": "1.4"},
    "fig1": {"--H": "0.2", "--ratio": "0.5", "--ns": "100,1000", "--grid": "50"},
    "fig2": {"--h-grid": "0.2:1:0.2", "--logratio-grid": "-1:1:0.5"},
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = FUZZ_COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(sorted(flags)), min_size=1, max_size=2))
    return [command] + [
        f"{flag}={draw(st.sampled_from(FUZZ_VALUES)) if flag in bad else valid}" for flag, valid in flags.items()
    ]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(argv=fuzz_argv())
# cases that raised a Python float error or printed numpy warnings before main handled them
@example(argv=["solve", "--n=8", "--delay=2", "--mu=1e300", "--sigma=1", "--sigma-hat=1.3"])
@example(argv=["simulate", "--n=8", "--delay=1", "--mu=1e300", "--sigma=1", "--sigma-hat=2", "--paths=200"])
@example(argv=["limit", "--H=0.2", "--theta=1e300", "--vsigma=1", "--vsigma-hat=1.4"])
@example(argv=["fig2", "--h-grid=0.2:1:0.2", "--logratio-grid=1e300"])
@example(argv=["kernel", "--H=1e-300", "--ratio=1e300", "--grid=50"])
@example(argv=["kernel", "--H=0.2", "--ratio=1e300", "--grid=50"])
# text flags echoed into the CSV '#' line, which a line break would split
@example(argv=["fig1", "--H=0.2", "--ratio=0.5", "--ns=100\n", "--grid=50"])
@example(argv=["fig2", "--h-grid=0.2:1:0.2\n", "--logratio-grid=-1:1:0.5"])
def test_fuzzed_flags_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
    assert time.perf_counter() - start < 30.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 2:
        assert out.getvalue() == ""
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
    elif argv[0] in ("solve", "simulate", "verify", "limit"):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        for line in out.getvalue().splitlines()[2:]:
            assert all(math.isfinite(float(x)) for x in line.split(","))
