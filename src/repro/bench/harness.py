"""Measurement machinery shared by every benchmark.

An experiment builds one or more indexes over a (table, workload) pair and
records, per index:

* correctness — every query's answer must equal the full-scan answer;
* average per-query wall-clock time and query throughput;
* machine-independent work counters: average points scanned and cell ranges
  per query (these are what the paper's cost model charges for, and they are
  what EXPERIMENTS.md compares against the paper since absolute wall-clock on
  a Python substrate is not meaningful);
* index size in bytes and build time split into data sorting vs optimization
  (the two bar components of Fig. 9b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines import (
    FloodIndex,
    HyperOctreeIndex,
    KdTreeIndex,
    SingleDimensionIndex,
    ZOrderIndex,
)
from repro.baselines.base import ClusteredIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.workload import Workload
from repro.storage.table import Table

IndexFactory = Callable[[], ClusteredIndex]


@dataclass
class IndexMeasurement:
    """Everything measured for one index on one dataset/workload."""

    index_name: str
    dataset: str
    num_rows: int
    num_queries: int
    build_sort_seconds: float
    build_optimize_seconds: float
    avg_query_seconds: float
    avg_points_scanned: float
    avg_cell_ranges: float
    index_size_bytes: int
    correct: bool
    details: dict = field(default_factory=dict)

    @property
    def build_seconds(self) -> float:
        """Total build time (sorting plus optimization)."""
        return self.build_sort_seconds + self.build_optimize_seconds

    @property
    def queries_per_second(self) -> float:
        """Query throughput (the y-axis of Fig. 7)."""
        if self.avg_query_seconds <= 0:
            return float("inf")
        return 1.0 / self.avg_query_seconds

    def as_row(self) -> dict:
        """Flat dictionary representation for report tables."""
        return {
            "index": self.index_name,
            "dataset": self.dataset,
            "rows": self.num_rows,
            "queries/s": round(self.queries_per_second, 1),
            "avg query (ms)": round(self.avg_query_seconds * 1e3, 3),
            "avg scanned": round(self.avg_points_scanned, 1),
            "avg cell ranges": round(self.avg_cell_ranges, 2),
            "index size (KiB)": round(self.index_size_bytes / 1024, 1),
            "build (s)": round(self.build_seconds, 2),
            "optimize (s)": round(self.build_optimize_seconds, 2),
            "correct": self.correct,
        }


def expected_answers(table: Table, workload: Workload) -> list[float]:
    """Ground-truth answers for every query, computed by full scans."""
    return [execute_full_scan(table, query)[0] for query in workload]


def measure_index(
    index: ClusteredIndex,
    table: Table,
    workload: Workload,
    dataset_name: str = "dataset",
    expected: Sequence[float] | None = None,
) -> IndexMeasurement:
    """Build ``index`` over ``table`` and measure it on ``workload``; every
    answer is checked against ``expected`` (full-scan answers by default)."""
    index.build(table, workload)

    if expected is None:
        expected = expected_answers(table, workload)

    total_seconds = 0.0
    total_scanned = 0
    total_ranges = 0
    correct = True
    for position, query in enumerate(workload):
        start = time.perf_counter()
        result = index.execute(query)
        total_seconds += time.perf_counter() - start
        total_scanned += result.stats.points_scanned
        total_ranges += result.stats.cell_ranges
        if result.value != expected[position]:
            correct = False

    num_queries = max(len(workload), 1)
    return IndexMeasurement(
        index_name=index.name,
        dataset=dataset_name,
        num_rows=table.num_rows,
        num_queries=len(workload),
        build_sort_seconds=index.build_report.sort_seconds,
        build_optimize_seconds=index.build_report.optimize_seconds,
        avg_query_seconds=total_seconds / num_queries,
        avg_points_scanned=total_scanned / num_queries,
        avg_cell_ranges=total_ranges / num_queries,
        index_size_bytes=index.index_size_bytes(),
        correct=correct,
        details=index.describe(),
    )


def run_comparison(
    table: Table,
    workload: Workload,
    factories: Mapping[str, IndexFactory],
    dataset_name: str = "dataset",
) -> list[IndexMeasurement]:
    """Measure every index produced by ``factories`` on the same data and workload.

    Each index is built on its own copy of ``table``: a build re-clusters its
    table in place, so a shared table would hand every optimizer the row
    order the previous build left.  ``table`` keeps its row order.
    """
    expected = expected_answers(table, workload)
    measurements = []
    for name, factory in factories.items():
        index = factory()
        measurement = measure_index(
            index,
            table.subset(np.arange(table.num_rows), name=table.name),
            workload,
            dataset_name=dataset_name,
            expected=expected,
        )
        measurement.index_name = name
        measurements.append(measurement)
    return measurements


def tune_page_size(
    index_class: type[ClusteredIndex],
    table: Table,
    workload: Workload,
    candidates: Sequence[int] = (512, 2048, 8192),
) -> int:
    """Pick the page size minimizing average scanned points for a tree/page index.

    This mirrors the paper's statement that the non-learned baselines' page
    sizes were tuned per dataset/workload (§6.3).
    """
    sample_queries = Workload(list(workload)[: min(len(workload), 50)])
    best_size = candidates[0]
    best_scanned = float("inf")
    for page_size in candidates:
        index = index_class(page_size=page_size)
        index.build(table, sample_queries)
        _, stats = index.execute_workload(sample_queries)
        if stats.points_scanned < best_scanned:
            best_scanned = stats.points_scanned
            best_size = page_size
    return best_size


def default_index_factories(
    optimizer_iterations: int = 4,
    target_points_per_cell: int = 128,
    page_size: int = 2048,
    include_learned: bool = True,
) -> dict[str, IndexFactory]:
    """The standard index suite compared in Fig. 7 / Fig. 8."""
    factories: dict[str, IndexFactory] = {
        "single-dim": SingleDimensionIndex,
        "z-order": lambda: ZOrderIndex(page_size=page_size),
        "hyperoctree": lambda: HyperOctreeIndex(page_size=page_size),
        "kd-tree": lambda: KdTreeIndex(page_size=page_size),
    }
    if include_learned:
        factories["flood"] = lambda: FloodIndex(
            optimizer_iterations=optimizer_iterations,
            target_points_per_cell=target_points_per_cell,
        )
        factories["tsunami"] = lambda: TsunamiIndex(
            TsunamiConfig(
                optimizer_iterations=optimizer_iterations,
                target_points_per_cell=target_points_per_cell,
            )
        )
    return factories


def learned_index_factories(
    optimizer_iterations: int = 4, target_points_per_cell: int = 128
) -> dict[str, IndexFactory]:
    """Only the learned indexes (used by the scaling sweeps to keep runtime low)."""
    return {
        "flood": lambda: FloodIndex(
            optimizer_iterations=optimizer_iterations,
            target_points_per_cell=target_points_per_cell,
        ),
        "tsunami": lambda: TsunamiIndex(
            TsunamiConfig(
                optimizer_iterations=optimizer_iterations,
                target_points_per_cell=target_points_per_cell,
            )
        ),
    }
