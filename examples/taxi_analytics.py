"""Taxi analytics: compare Tsunami against Flood and non-learned indexes.

Run with::

    python examples/taxi_analytics.py [num_rows]

This is the paper's Fig. 7 driver on the Taxi stand-in dataset alone: the
same skewed six-type workload is served through every index, one query at a
time, and the script prints query throughput, rows scanned, index size, and
build time for each, plus any Fig. 7 shape check this run missed.
"""

from __future__ import annotations

import sys

from repro.bench.experiments import experiment_overall
from repro.bench.report import relative_factors


def main(num_rows: int = 80_000) -> None:
    result = experiment_overall(num_rows, queries_per_type=50, datasets=("taxi",))
    entries = result.data["taxi"]
    print(f"taxi stand-in: {num_rows} rows, {entries[0]['num_queries']} queries\n")
    print(result.report)

    throughput = {entry["index"]: entry["queries_per_second"] for entry in entries}
    speedups = relative_factors(throughput, reference="flood")
    print("\nthroughput relative to Flood:")
    for name, factor in sorted(speedups.items(), key=lambda item: -item[1]):
        print(f"  {name:12s} {factor:5.2f}x")
    for violation in result.violations:
        print(f"missed paper shape: {violation}")

    if not all(entry["correct"] for entry in entries):
        raise SystemExit("some index returned a wrong answer — this is a bug")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 80_000)
