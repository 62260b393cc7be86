"""Run one workload of the serving benchmark and print its metrics.

Usage, from the repository root::

    python3 servebench/run.py --workload taxi_skewed --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (README.md describes both).  Every line but the last is for
people; the last is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when an operation failed
or an answer differed from a full scan, and 2 without a result when the
library sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: (name, unit) of the metrics each mode prints, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("index_bytes", "B"),
    ("table_bytes_per_value", "B"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("serve.queue_wait_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.query_p99_ms", "ms"),
    ("serve.insert_p50_ms", "ms"),
    ("serve.insert_p99_ms", "ms"),
    ("cache.hit_rate", "fraction"),
    ("cache.evictions", "count"),
    ("grid_tree.route_ms", "ms"),
    ("augmented_grid.plan_ms", "ms"),
    ("plan_cache.hit_rate", "fraction"),
    ("scan.execute_ms", "ms"),
    ("scan.points_scanned_per_query", "count"),
    ("scan.cell_ranges_per_query", "count"),
    ("scan.bytes_scanned_per_query", "B"),
    ("scan.match_ratio", "ratio"),
    ("build.optimize_s", "s"),
    ("build.sort_s", "s"),
    ("sharding.fanout_ms", "ms"),
    ("sharding.shard_busy_ms", "ms"),
    ("sharding.parallel_ratio", "ratio"),
    ("sharding.shards_pruned_per_query", "count"),
    ("delta.insert_ms", "ms"),
    ("delta.buffer_scan_ms", "ms"),
    ("delta.pending_rows_mean", "count"),
    ("merge.count", "count"),
    ("merge.ms", "ms"),
    ("merge.regions_touched_frac", "fraction"),
    ("lifecycle.drifts", "count"),
    ("lifecycle.reoptimizations", "count"),
    ("lifecycle.reoptimize_ms", "ms"),
    ("lifecycle.maintenance_share", "fraction"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the serving benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="nominal length of the timed passes together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: library sources not found at {SRC / 'repro'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    report = workloads.measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    selected = PER_LAYER if args.trace else END_TO_END
    for line in report.notes:
        print(line)
    for name, unit in selected:
        print(f"{name:34} {report.metrics[name]:18.6f} {unit}")
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit} for name, unit in selected},
    }
    print(json.dumps(result))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
