import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delayed_hedge import mc
from delayed_hedge.cli import main


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
    assert doc["checks"] == [
        {"name": "stub.residual", "passed": False, "worst_residual": None, "tolerance": 1e-9}
    ]


def test_out_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "run.json"
    code = main(["limit", "--H", "0.5", "--vsigma", "1", "--vsigma-hat", "2", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["config"]["H"] == 0.5


MARKET = ["--n", "4", "--delay", "1", "--sigma", "1", "--sigma-hat", "1.3"]


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
