"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 servebench/spread.py --workload taxi_skewed --seeds 1 10 [--seconds 10] [--trace 0] [--json FILE]

Every seed runs ``run.py`` in its own process, one after another.  For each
metric the report gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
``(Q3 - Q1) / median`` next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_seed(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(ROOT / "servebench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        sys.exit(f"seed {seed} exited {completed.returncode}:\n{completed.stdout[-3000:]}\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description="Spread of the benchmark's metrics across seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the values and the summary to this file")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        metrics = run_seed(args.workload, seed, seconds, args.trace)["metrics"]
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
        shown = "  ".join(f"{name} {metric['value']:.6g}" for name, metric in metrics.items())
        print(f"seed {seed}: {shown}", flush=True)
    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            verdict = f"bound {bound}: {verdict}"
        print(f"{name:34} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:8.4f}  {verdict}")
    if args.json:
        report = {"workload": args.workload, "seconds": seconds, "values": values, "summary": summary}
        args.json.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
