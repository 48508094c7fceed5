#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload paths --seeds 1-10 [--seconds 15] [--trace 0]

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, the figure each end-to-end bound in
BENCHMARK.json is compared with.  Every run's result line is appended to
``.perfbench/spread-<workload>-trace<t>.jsonl`` and the summary written to
``.perfbench/spread-<workload>-trace<t>.summary.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".perfbench"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    OUT_DIR.mkdir(exist_ok=True)
    log = OUT_DIR / f"spread-{args.workload}-trace{args.trace}.jsonl"
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=200,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        summary[name] = {"median": med, "values": vals}
        if len(vals) < 2 or med == 0:
            print(f"{name}: median={med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name].update(q1=q1, q3=q3, spread=spread)
        bound = bounds.get(name)
        mark = "" if bound is None else f"  bound={bound} ({'ok' if spread < bound / 3 else 'WIDE'}: < bound/3)"
        print(f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}{mark}")
    summary_path = OUT_DIR / f"spread-{args.workload}-trace{args.trace}.summary.json"
    summary_path.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds, "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
