#!/usr/bin/env python3
"""Benchmark of the delayed_hedge library: seeded workloads, checked outputs,
end-to-end metrics untraced and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from any directory; the library is imported from ``src/`` next to this
directory.  Each workload runs in fresh worker processes with the BLAS and
OpenMP thread count fixed at BLAS_THREADS.  SETUP_REPEATS workers each import
the library, generate the seeded inputs and make one warm-up call into every
layer the workload uses; the time from spawn to that point is one ``setup_s``
sample.  The middle one of them then repeats rounds of the workload (every op
once, every output checked) until ``--seconds`` have passed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record,
with provenance and per-check worst residuals, goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans to ``.perfbench/<workload>-seed<seed>-spans.jsonl``.  The exit
code is 1 if any output check failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("paths", "grid", "kernel", "convergence")
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729  # not used while writing the benchmark; re-check claims on it
SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_FUNCTIONS = (
    "solver.solve",
    "solver.strategy",
    "solver.value",
    "solver.hedge_matrix",
    "solver.evaluate_paths",
    "toeplitz.inverse_via_v",
    "toeplitz.dense_inverse",
    "toeplitz.dense_det",
    "toeplitz.check_vanishing_minors",
    "dual.build_dual",
    "dual.relative_entropy",
    "dual.verification_residual",
    "mc.generate",
    "mc.estimate_utility",
    "kernel.kernel_spec",
    "kernel.kappa",
    "kernel.kappa_integral_residual",
    "kernel.kappa_ode_grid",
    "kernel.limit_value",
    "convergence.build_bn",
    "convergence.l2_distance_to_kappa",
    "convergence.figure1_data",
    "convergence.figure2_data",
    "convergence.write_csv",
    "market.discretize",
)
EXACT_COUNTS = {
    "solver.evaluate_paths.path_steps": "count",
    "dual.verification_residual.path_steps": "count",
    "toeplitz.inverse_via_v.computed_mb": "MB",
    "kernel.kappa_integral_residual.points": "count",
    "convergence.l2_distance_to_kappa.steps": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.busy_s"] = "s"
        units[f"{fn}.peak_alloc_mb"] = "MB"
    units.update(EXACT_COUNTS)
    units["mc.estimate_utility.ess_ratio"] = "ratio"
    units["bench.op.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _import_library():
    sys.path.insert(0, str(SRC))
    import delayed_hedge

    if Path(delayed_hedge.__file__).resolve().parent != SRC / "delayed_hedge":
        raise ImportError(f"delayed_hedge imported from {delayed_hedge.__file__}, not {SRC}")
    return delayed_hedge


def _library_provenance(delayed_hedge) -> dict:
    import numpy
    import scipy
    from delayed_hedge import mc

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "delayed_hedge": delayed_hedge.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "generator_id": mc.GENERATOR_ID,
    }


def worker(mode: str, name: str, seed: int, seconds: float, trace: bool) -> None:
    import resource

    delayed_hedge = _import_library()
    from spans import Tracer, layer_table
    from workloads import WORKLOADS, Checks, run_round

    workload = WORKLOADS[name]
    items = workload.inputs(seed)
    workload.warm_up(Tracer(False), items)
    print("ready", flush=True)
    if mode == "setup":
        return

    checks = Checks()
    plain = Tracer(False)
    traced = Tracer(True)
    rounds, op_rounds, traced_rounds, span_rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.reset()
        t0 = time.perf_counter()
        run_round(name, plain, checks, items)
        rounds.append(time.perf_counter() - t0)
        op_rounds.append(plain.op_seconds)
        if trace:
            traced.reset()
            t0 = time.perf_counter()
            run_round(name, traced, checks, items)
            traced_rounds.append(time.perf_counter() - t0)
            span_rounds.append((len(rounds), traced.spans))
        if time.perf_counter() - start >= seconds:
            break

    result = {
        "rounds_s": rounds,
        "op_rounds_s": op_rounds,
        "checks": checks.by_name,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "provenance": _library_provenance(delayed_hedge),
    }
    if trace:
        result["traced_rounds_s"] = traced_rounds
        result["layers"] = layer_table([spans for _, spans in span_rounds])
        result["peak_alloc_mb"] = {k: v / 1e6 for k, v in traced.peaks.items()}
        result["counts"] = dict(traced.counts)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as stream:
            for round_index, spans in span_rounds:
                for s in spans:
                    stream.write(json.dumps({"round": round_index, **s._asdict()}) + "\n")
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# Parent: spawn workers, assemble metrics
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def _spawn(mode: str, name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Start a worker; return (process, seconds until it reported ready, kill timer)."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARIABLES})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode, "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        timer.cancel()
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name} worker failed during set-up (exit {proc.returncode})")
    return proc, ready, timer


def _finish(proc, timer) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode} (killed at the deadline if negative)")
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup = []

    def setup_only():
        proc, ready, timer = _spawn("setup", name, seed, seconds, trace, deadline)
        _finish(proc, timer)
        setup.append(ready)

    # set-up samples before and after the measuring worker, so that they span
    # the run instead of one phase of the machine's speed
    for _ in range(SETUP_REPEATS // 2):
        setup_only()
    proc, ready, timer = _spawn("run", name, seed, seconds, trace, deadline)
    setup.append(ready)
    lines = _finish(proc, timer).strip().splitlines()
    for _ in range(SETUP_REPEATS - 1 - SETUP_REPEATS // 2):
        setup_only()
    if not lines:
        raise BenchError(f"{name} worker printed no result")
    body = json.loads(lines[-1])

    attempted, failed = body["attempted"], body["failed"]
    op_latencies = [statistics.median(samples) for samples in zip(*body["op_rounds_s"])]
    if trace:
        layers, counts = body["layers"], body["counts"]
        values = {}
        for fn in LAYER_FUNCTIONS:
            row = layers.get(fn, {"calls": 0, "busy_s": 0.0})
            values[f"{fn}.calls"] = row["calls"]
            values[f"{fn}.busy_s"] = row["busy_s"]
            values[f"{fn}.peak_alloc_mb"] = body["peak_alloc_mb"].get(fn, 0.0)
        for key in EXACT_COUNTS:
            values[key] = counts.get(key, 0)
        paths = counts.get("mc.estimate_utility.paths", 0)
        values["mc.estimate_utility.ess_ratio"] = counts["mc.estimate_utility.ess"] / paths if paths else 0.0
        values["bench.op.self_s"] = layers[f"op.{name}"]["busy_s"]
        values["trace.overhead_s"] = statistics.median(body["traced_rounds_s"]) - statistics.median(body["rounds_s"])
        units = per_layer_units()
    else:
        # each op's latency is its median over the rounds; the percentiles are
        # taken over the workload's ops
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(body["rounds_s"]),
            "op_p50_ms": statistics.median(op_latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(op_latencies, n=10, method="inclusive")[-1] * 1e3,
            "peak_rss_mb": body["peak_rss_mb"],
        }
        units = END_TO_END
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        **body["provenance"],
    }
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "provenance": provenance,
        "setup_samples_s": setup,
        "rounds_s": body["rounds_s"],
        "traced_rounds_s": body.get("traced_rounds_s"),
        "ops": len(body["op_rounds_s"][0]),
        "op_latency_s": op_latencies,
        "checks": body["checks"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines: provenance, run shape, every metric with its unit."""
    p = record["provenance"]
    print(f"== {p['workload']} seed={p['seed']} seconds={p['seconds']} trace={p['trace']}")
    print("provenance " + json.dumps(p))
    print(f"rounds={len(record['rounds_s'])} ops per round={record['ops']} "
          f"setup samples={len(record['setup_samples_s'])}")
    if record["traced_rounds_s"]:
        print(f"traced rounds={len(record['traced_rounds_s'])} "
              f"untraced wall_s={statistics.median(record['rounds_s']):.6g} "
              f"traced wall_s={statistics.median(record['traced_rounds_s']):.6g}")
    metrics = record["metrics"]
    uncalled = {fn for fn in LAYER_FUNCTIONS if metrics.get(f"{fn}.calls", {}).get("value") == 0}
    for name, m in metrics.items():
        if name.rsplit(".", 1)[0] not in uncalled:
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if uncalled:
        print(f"  not called by this workload (0 calls, 0 s, 0 MB): {', '.join(sorted(uncalled))}")
    print(f"error_rate = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']}/{record['attempted']} checks failed)")
    for check, c in sorted(record["checks"].items()):
        if c["failed"]:
            print(f"  FAILED {check}: {c['failed']}/{c['attempted']} worst={c['worst']:.3e} tol={c['tol']:.1e}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed, args.seconds, bool(args.trace))
        return 0
    if not (SRC / "delayed_hedge" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(records[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        (record,) = records.values()
    else:
        record = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
