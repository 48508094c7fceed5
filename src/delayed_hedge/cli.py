"""Command-line interface: solve, verify, simulate, kernel, limit, fig1, fig2.

Every run echoes its resolved configuration (JSON ``config`` field or a
'#'-prefixed CSV comment), numbers are emitted at full double precision in
JSON and '%.12g' in CSV, and exit codes follow CI conventions: 0 success,
1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import convergence, kernel, mc, solver, verify
from .errors import DelayedHedgeError, NumericalError, SizeError
from .market import ContinuousMarket, DiscreteMarket

SCHEMA_VERSION = 1

# Cap on the values one command computes and writes: grid points, solve's
# weights, fig1's summed n and table cells, fig2's table rows.  Each is
# counted before anything is allocated.
MAX_POINTS = 10**6


def _check_points(count: int, what: str) -> None:
    if count > MAX_POINTS:
        raise SizeError(f"{what}: {count} exceeds the cap of MAX_POINTS = {MAX_POINTS}")


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}


def _open_out(args):
    if getattr(args, "out", None):
        try:
            return open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise DelayedHedgeError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    return nullcontext(sys.stdout)


def _emit_json(args, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": _config(args)}
    doc.update(payload)
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"result is not finite: {exc}") from exc
    with _open_out(args) as stream:
        stream.write(text + "\n")


def _emit_csv(args, table: convergence.Table, command: str) -> None:
    if not np.isfinite(table.columns).all():
        raise NumericalError("result is not finite: the table holds NaN or infinite values")
    meta = {"command": command, "schema_version": SCHEMA_VERSION}
    meta.update(_config(args))
    with _open_out(args) as stream:
        convergence.write_csv(table, stream, metadata=meta)


def _market_from(args) -> DiscreteMarket:
    return DiscreteMarket(n=args.n, delay=args.delay, mu=args.mu, sigma=args.sigma, sigma_hat=args.sigma_hat)


def _parse_grid(text: str):
    """Comma list ('0.1,0.2') or inclusive range syntax 'lo:hi:step' (at most MAX_POINTS points)."""
    if ":" in text:
        lo, hi, step = (float(p) for p in text.split(":"))
        if not step > 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        count = int(round((hi - lo) / step))
        _check_points(count + 1, "grid points")
        return [round(lo + i * step, 12) for i in range(count + 1) if lo + i * step <= hi + 1e-12]
    return [float(p) for p in text.split(",")]


def _parse_ns(text: str):
    return [int(p) for p in text.split(",")]


def _arg_type(convert, ok, rule: str):
    """argparse type: ``convert`` the text and require ``ok`` of the result."""

    def parse(text: str):
        try:
            value = convert(text)
            valid = ok(value)
        except (ValueError, ArithmeticError):
            valid = False
        except SizeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    return parse


_positive_int = _arg_type(int, lambda v: v >= 1, "an integer >= 1")
_grid_steps = _arg_type(int, lambda v: 1 <= v < MAX_POINTS, f"an integer in [1, {MAX_POINTS})")
_positive_float = _arg_type(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_finite_float = _arg_type(float, math.isfinite, "a finite number")
_seed = _arg_type(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2^64)")
# these two keep the text, which the config echo prints, so it must be one line
_ns = _arg_type(
    str,
    lambda text: text.splitlines() == [text] and min(_parse_ns(text)) >= 1 and sum(_parse_ns(text)) <= MAX_POINTS,
    f"comma-separated integers >= 1 summing to at most {MAX_POINTS}",
)
_grid = _arg_type(
    str,
    lambda text: text.splitlines() == [text] and len(_parse_grid(text)) > 0,
    "a comma list or lo:hi:step with step > 0",
)


def cmd_solve(args) -> int:
    m = _market_from(args)
    _check_points(m.n - 1, "solve weights b_1..b_{n-1}")
    sol = solver.solve(m)
    _emit_json(
        args,
        {
            "a": sol.a,
            "b": list(sol.b),
            "static_coeff": sol.static_coeff,
            "merton": sol.merton,
            "value": sol.value,
            "c_hat": sol.c_hat,
        },
    )
    return 0


def cmd_verify(args) -> int:
    ok, checks = verify.run(args.suite, grid_size=args.grid_size)
    _emit_json(args, {"all_passed": ok, "checks": [c.to_json() for c in checks]})
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    m = _market_from(args)
    if args.paths < 100:
        raise DelayedHedgeError(f"need at least 100 paths, got {args.paths}")
    batch = mc.generate(m, args.paths, args.seed)  # first: it enforces the path-step cap
    sol = solver.solve(m)
    w = sol.strategy
    if args.perturb is not None:
        w = dataclasses.replace(w, kernel=args.perturb * w.kernel)
    report = mc.estimate_utility(batch, w, m)
    payload = report.to_json()
    payload["log_neg_value"] = -sol.c_hat  # log(-value_formula), finite where value_formula underflows to -0.0
    payload["value_formula"] = sol.value
    if report.analytic is not None and report.analytic < 0.0 and report.relative_std_error > 0.0:
        # how many relative standard errors the estimate sits from its oracle on the log scale, where the
        # mean and the oracle stay finite past the underflow of -exp(-V); left out where it would not be finite
        payload["z_vs_analytic"] = (math.log(-report.analytic) - report.log_neg_mean) / report.relative_std_error
    if report.analytic_skipped is not None:
        payload["analytic_skipped"] = report.analytic_skipped
    payload["generator"] = mc.GENERATOR_ID
    _emit_json(args, payload)
    return 0


def cmd_kernel(args) -> int:
    market = ContinuousMarket(H=args.H, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(args.ratio))
    spec = kernel.spec_for_market(market)
    ts = np.linspace(0.0, 1.0, args.grid + 1)
    kappas = np.array([kernel.kappa(t, spec) for t in ts])
    # the strategy kernel gamma = kappa - level, exactly 0 below H where kappa is the level
    rows = np.column_stack([ts, kappas, kappas - spec.level])
    _emit_csv(args, convergence.Table(header=["t", "kappa", "gamma_kernel"], columns=rows), "kernel")
    return 0


def cmd_limit(args) -> int:
    market = ContinuousMarket(H=args.H, theta=args.theta, varsigma=args.vsigma, varsigma_hat=args.vsigma_hat)
    _emit_json(
        args,
        {
            "alpha": kernel.alpha(market.H, market.varsigma, market.varsigma_hat),
            "limit_value": kernel.limit_value(market),
            "limit_static_coeff": kernel.limit_static_coeff(market),
        },
    )
    return 0


def cmd_fig1(args) -> int:
    market = ContinuousMarket(H=args.H, theta=0.0, varsigma=1.0, varsigma_hat=math.sqrt(args.ratio))
    ns = _parse_ns(args.ns)
    _check_points((args.grid + 1) * len(ns), "fig1 table cells (grid + 1) * len(ns)")
    table = convergence.figure1_data(market, ns=ns, grid=args.grid, include_unshifted=args.include_unshifted)
    _emit_csv(args, table, "fig1")
    return 0


def cmd_fig2(args) -> int:
    h_grid, logratio_grid = _parse_grid(args.h_grid), _parse_grid(args.logratio_grid)
    _check_points(len(h_grid) * len(logratio_grid), "fig2 table rows")
    table = convergence.figure2_data(h_grid, logratio_grid)
    _emit_csv(args, table, "fig2")
    return 0


def _add_market_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of trading steps")
    sub.add_argument("--delay", type=int, required=True, help="information delay in steps")
    sub.add_argument("--mu", type=float, default=0.0, help="per-step drift")
    sub.add_argument("--sigma", type=float, required=True, help="per-step volatility")
    sub.add_argument("--sigma-hat", dest="sigma_hat", type=float, required=True,
                     help="static-pricing volatility")
    sub.add_argument("--s0", type=_finite_float, default=0.0, help="initial price (only echoed in config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayed-hedge",
        description="Optimal semistatic hedging under delayed information in a Gaussian market.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--out", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="explicit strategy and value for a discrete market")
    _add_market_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="run the identity/property suites")
    p.add_argument("--suite", choices=["matrix", "dual", "kernel", "convergence", "all"],
                   default="all")
    p.add_argument("--grid-size", dest="grid_size", type=_positive_int, default=len(verify.N_VALUES),
                   help="how many n values of the sweep to use")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo utility estimate for the optimal strategy")
    _add_market_flags(p)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--perturb", type=float, default=None,
                   help="scale the dynamic kernel by this factor (suboptimality probe)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kernel", parents=[common], help="tabulate kappa and the strategy kernel")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--ratio", type=_positive_float, required=True, help="varsigma_hat^2 / varsigma^2")
    p.add_argument("--grid", type=_grid_steps, default=500)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("limit", parents=[common], help="continuous-limit alpha, value and static coefficient")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--vsigma", type=float, required=True)
    p.add_argument("--vsigma-hat", dest="vsigma_hat", type=float, required=True)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("fig1", parents=[common], help="scaled discrete weights vs the shifted kernel (CSV)")
    p.add_argument("--H", type=float, default=0.2)
    p.add_argument("--ratio", type=_positive_float, required=True, help="varsigma_hat^2 / varsigma^2")
    p.add_argument("--ns", type=_ns, default="100,1000", help="comma-separated n values")
    p.add_argument("--grid", type=_grid_steps, default=500)
    p.add_argument("--include-unshifted", action="store_true",
                   help="append raw kappa and n*b columns")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", parents=[common], help="limit value over (H, log volatility ratio) (CSV)")
    p.add_argument("--h-grid", dest="h_grid", type=_grid, default="0.02:1.0:0.02",
                   help="comma list or lo:hi:step")
    p.add_argument("--logratio-grid", dest="logratio_grid", type=_grid,
                   default="-2.0:2.0:0.1", help="comma list or lo:hi:step")
    p.set_defaults(func=cmd_fig2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy overflow is silent here: a non-finite result fails at the emitters instead
        with np.errstate(all="ignore"):
            return args.func(args)
    except ArithmeticError as exc:  # Python floats raise on overflow and division by zero
        # float ** raises OverflowError(errno, strerror), whose str is the args tuple
        error = f"floating-point error at extreme inputs: {exc.args[-1] if exc.args else exc}"
    except DelayedHedgeError as exc:
        error = str(exc)
    print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
