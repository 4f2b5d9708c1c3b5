"""Run the benchmark over several seeds and summarize it as a trajectory point.

Usage, from the repository root::

    python3 perfbench/collect.py --label seed-ea77dc1 \\
        --out perfbench/trajectory/BENCH_seed.json

For every workload in BENCHMARK.json it makes one ``--trace 0`` run per seed
(seeds 1..SEEDS), one at a time, and then one ``--trace 1`` run on seed 1. It
prints, per end-to-end metric, the median and the quartile spread
((q3 - q1) / median, from ``statistics.quantiles(values, n=4)``) next to a
third of the metric's bound, and writes everything to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="unlabelled")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, SEEDS + 1))
    point = {
        "label": args.label,
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        summary = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary["metrics"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:11s} {metric:12s} median {median:10.5g}  spread {spread:7.4f}"
                f"  bound/3 {bound / 3:.4f}{flag}",
                flush=True,
            )
        print(f"{workload:11s} failed {summary['failed']}/{summary['attempted']}", flush=True)
        traced = _run(workload, seeds[0], bench["run_seconds"], 1)
        summary["trace_seed"] = seeds[0]
        summary["trace"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = summary
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
