"""Experiment drivers beyond the paper's tables/figures (§8 extensions and ablations).

Five supplementary experiments accompany the paper reproduction:

* :func:`experiment_extended_baselines` adds the Grid File and R-tree to the
  Fig. 7-style comparison, covering the traditional indexes the paper cites
  but does not re-benchmark.
* :func:`experiment_outlier_mappings` quantifies the §8 "Complex Correlations"
  extension: on a tightly correlated column pair polluted with a handful of
  outliers, it compares a plain functional mapping, the outlier-buffered
  mapping, and falling back to independent CDF partitioning.
* :func:`experiment_incremental_reopt` quantifies the §8 "Data and Workload
  Shift" extension: after a workload shift it compares doing nothing, the
  incremental per-region re-optimization, and the paper's full re-optimization
  in both adaptation time and post-adaptation scan work.
* :func:`experiment_cost_weights` and :func:`experiment_region_budget` sweep
  two design knobs the paper discusses qualitatively: the cost model's
  per-cell-range weight ``w0`` (§5.3.1) and the Grid Tree region budget
  (§4.3).

Like the paper drivers, each checks its expected shape into
:attr:`~repro.bench.experiments.ExperimentResult.violations`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import FloodIndex, GridFileIndex, RTreeIndex
from repro.bench.experiments import ExperimentResult, _check, _check_correct, _check_scans
from repro.bench.harness import default_index_factories, run_comparison
from repro.bench.report import format_table
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel
from repro.core.grid_tree import GridTreeConfig
from repro.core.incremental import IncrementalReoptimizer
from repro.core.skeleton import (
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.datasets import load_dataset
from repro.datasets.tpch import tpch_shifted_templates
from repro.datasets.workload_gen import generate_workload
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


# ---------------------------------------------------------------------------
# Extended baseline comparison (Grid File, R-tree)
# ---------------------------------------------------------------------------


def experiment_extended_baselines(
    num_rows: int,
    queries_per_type: int,
    datasets: tuple[str, ...] = ("tpch", "taxi"),
    page_size: int = 2048,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 7-style comparison including the Grid File and R-tree baselines."""
    rows = []
    data: dict = {}
    violations: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        factories = default_index_factories(page_size=page_size)
        factories["grid-file"] = lambda: GridFileIndex(page_size=page_size)
        factories["r-tree"] = lambda: RTreeIndex(page_size=page_size)
        measurements = run_comparison(table, workload, factories, dataset_name=name)
        data[name] = measurements
        rows.extend(measurement.as_row() for measurement in measurements)
        _check_correct(violations, name, measurements)
        # Flood's §6.1 claim on our substrate: learned beats both traditional baselines.
        for baseline in ("grid-file", "r-tree"):
            _check_scans(violations, name, measurements, baseline, 1.05)
    return ExperimentResult(
        "Extended baselines: Grid File and R-tree vs the Fig. 7 suite",
        format_table(rows),
        data,
        violations,
    )


# ---------------------------------------------------------------------------
# Outlier-aware functional mappings (§8 "Complex Correlations")
# ---------------------------------------------------------------------------


def _outlier_dataset(num_rows: int, outlier_fraction: float, seed: int) -> Table:
    """Two tightly correlated columns with a small fraction of outlier rows."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100_000, num_rows)
    y = 2 * x + rng.integers(-100, 101, num_rows)
    num_outliers = max(1, int(outlier_fraction * num_rows))
    outlier_rows = rng.choice(num_rows, size=num_outliers, replace=False)
    y[outlier_rows] += rng.integers(500_000, 2_000_000, num_outliers)
    z = rng.integers(0, 1_000, num_rows)
    return Table.from_arrays("outliers", {"x": x, "y": y, "z": z})


def _mapped_workload(table: Table, num_queries: int, seed: int) -> Workload:
    """Queries filtering the mapped dimension ``y`` with ~1% selectivity."""
    rng = np.random.default_rng(seed)
    low_bound, high_bound = table.bounds("y")
    width = max(1, (high_bound - low_bound) // 100)
    queries = []
    for _ in range(num_queries):
        low = int(rng.integers(low_bound, high_bound - width))
        queries.append(Query.from_ranges({"y": (low, low + width)}))
    return Workload(queries, name="mapped")


def experiment_outlier_mappings(
    num_rows: int,
    num_queries: int = 100,
    outlier_fraction: float = 0.001,
    partitions: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Scan work of plain vs outlier-buffered functional mappings vs no mapping."""
    table = _outlier_dataset(num_rows, outlier_fraction, seed)
    workload = _mapped_workload(table, num_queries, seed + 1)

    mapped_skeleton = Skeleton(
        {
            "x": IndependentCDFStrategy(),
            "y": FunctionalMappingStrategy(target="x"),
            "z": IndependentCDFStrategy(),
        }
    )
    independent_skeleton = Skeleton.all_independent(["x", "y", "z"])
    variants = {
        "independent CDFs (no mapping)": AugmentedGridConfig(
            skeleton=independent_skeleton, partitions={"x": partitions, "y": partitions, "z": 1}
        ),
        "functional mapping (plain)": AugmentedGridConfig(
            skeleton=mapped_skeleton, partitions={"x": partitions, "z": 1}
        ),
        "functional mapping (outlier buffer)": AugmentedGridConfig(
            skeleton=mapped_skeleton,
            partitions={"x": partitions, "z": 1},
            outlier_aware_mappings=True,
            outlier_fraction=max(0.01, 2 * outlier_fraction),
        ),
    }

    rows = []
    data: dict = {}
    for label, config in variants.items():
        working_table = table.subset(np.arange(table.num_rows), name=table.name)
        grid = AugmentedGrid(config)
        permutation = grid.fit(working_table)
        working_table.reorder(permutation)
        scanned = 0
        ranges_total = 0
        for query in workload:
            spans, features = grid.plan(query)
            scanned += features.points_scanned
            ranges_total += features.num_cell_ranges
        rows.append(
            {
                "variant": label,
                "avg points scanned": round(scanned / len(workload), 1),
                "avg cell ranges": round(ranges_total / len(workload), 2),
                "index size (KiB)": round(grid.index_size_bytes() / 1024, 1),
            }
        )
        data[label] = {"scanned": scanned / len(workload), "size": grid.index_size_bytes()}
    plain = data["functional mapping (plain)"]["scanned"]
    buffered = data["functional mapping (outlier buffer)"]["scanned"]
    violations: list[str] = []
    # The outlier buffer must substantially reduce the polluted mapping's scan work.
    _check(
        violations,
        buffered < plain * 0.5,
        f"outlier buffer scans {buffered:.1f} points/query, not under 0.5x the plain mapping's {plain:.1f}",
    )
    return ExperimentResult(
        "Ablation: outlier-aware functional mappings (§8)", format_table(rows), data, violations
    )


# ---------------------------------------------------------------------------
# Incremental re-optimization (§8 "Data and Workload Shift")
# ---------------------------------------------------------------------------


def experiment_incremental_reopt(
    num_rows: int,
    queries_per_type: int,
    max_regions: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Adaptation time and post-shift scan work: none vs incremental vs full reopt."""
    config = TsunamiConfig(optimizer_iterations=2)

    def build_index() -> tuple[TsunamiIndex, Workload, Workload]:
        table, workload = load_dataset(
            "tpch", num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        index = TsunamiIndex(config).build(table, workload)
        shifted = generate_workload(
            index.table,
            tpch_shifted_templates(queries_per_type=queries_per_type),
            seed=seed + 7,
            name="tpch_shifted",
        )
        return index, workload, shifted

    def average_scanned(index: TsunamiIndex, workload: Workload) -> float:
        _, stats = index.execute_workload(workload)
        return stats.points_scanned / max(len(workload), 1)

    rows = []
    data: dict = {}

    index, _, shifted = build_index()
    rows.append(
        {
            "strategy": "no re-optimization",
            "adaptation (s)": 0.0,
            "avg points scanned (shifted)": round(average_scanned(index, shifted), 1),
        }
    )
    data["none"] = rows[-1]

    index, _, shifted = build_index()
    reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.02, max_regions=max_regions)
    report = reoptimizer.reoptimize(shifted)
    rows.append(
        {
            "strategy": f"incremental ({len(report.regions_reoptimized)} regions)",
            "adaptation (s)": round(report.seconds, 3),
            "avg points scanned (shifted)": round(average_scanned(index, shifted), 1),
        }
    )
    data["incremental"] = rows[-1]

    index, _, shifted = build_index()
    start = time.perf_counter()
    index.reoptimize(shifted)
    full_seconds = time.perf_counter() - start
    rows.append(
        {
            "strategy": "full re-optimization (paper §6.4)",
            "adaptation (s)": round(full_seconds, 3),
            "avg points scanned (shifted)": round(average_scanned(index, shifted), 1),
        }
    )
    data["full"] = rows[-1]

    none, incremental, full = (data[key] for key in ("none", "incremental", "full"))
    violations: list[str] = []
    # Incremental adaptation must be cheaper than a full rebuild and must not
    # make the shifted workload slower than doing nothing at all.
    _check(
        violations,
        incremental["adaptation (s)"] < full["adaptation (s)"],
        f"incremental adaptation {incremental['adaptation (s)']} s, not under full's {full['adaptation (s)']} s",
    )
    scanned = "avg points scanned (shifted)"
    _check(
        violations,
        incremental[scanned] <= none[scanned] * 1.05,
        f"incremental layout scans {incremental[scanned]} points/query, "
        f"over 1.05x no re-optimization's {none[scanned]}",
    )
    return ExperimentResult(
        "Ablation: incremental vs full re-optimization (§8)", format_table(rows), data, violations
    )


# ---------------------------------------------------------------------------
# Design-choice ablations: cost-model weights (§5.3.1), region budget (§4.3)
# ---------------------------------------------------------------------------


def experiment_cost_weights(num_rows: int, queries_per_type: int) -> ExperimentResult:
    """Flood's grid as the per-cell-range weight ``w0`` grows: a larger charge
    pushes the optimizer towards coarser grids that scan more points."""
    table, workload = load_dataset("tpch", num_rows=num_rows, queries_per_type=queries_per_type)
    rows = []
    for w0 in (5.0, 50.0, 500.0):
        index = FloodIndex(cost_model=CostModel(w0=w0, w1=1.0))
        index.build(table, workload)
        _, stats = index.execute_workload(workload)
        rows.append(
            {
                "w0": w0,
                "grid cells": index.num_cells,
                "avg scanned": round(stats.points_scanned / len(workload), 1),
                "avg cell ranges": round(stats.cell_ranges / len(workload), 2),
            }
        )
    cheap, dear = rows[0]["grid cells"], rows[-1]["grid cells"]
    violations: list[str] = []
    # A cheaper cell-range charge must never yield fewer cells than the dearest.
    _check(violations, cheap >= dear, f"{cheap} cells at w0 = 5, under the {dear} at w0 = 500")
    return ExperimentResult("Ablation: cost-model weight w0 (§5.3.1)", format_table(rows), {"rows": rows}, violations)


def experiment_region_budget(num_rows: int, queries_per_type: int) -> ExperimentResult:
    """Tsunami as the Grid Tree's region budget grows: more regions may reduce
    scan work but grow the index."""
    table, workload = load_dataset("taxi", num_rows=num_rows, queries_per_type=queries_per_type)
    rows = []
    for max_regions in (1, 8, 48):
        index = TsunamiIndex(TsunamiConfig(grid_tree=GridTreeConfig(max_regions=max_regions)))
        index.build(table, workload)
        _, stats = index.execute_workload(workload)
        rows.append(
            {
                "max regions": max_regions,
                "regions": index.describe()["num_leaf_regions"],
                "avg scanned": round(stats.points_scanned / len(workload), 1),
                "index size (KiB)": round(index.index_size_bytes() / 1024, 1),
            }
        )
    fewest, most = rows[0]["regions"], rows[-1]["regions"]
    violations: list[str] = []
    _check(violations, fewest <= most, f"{fewest} regions at budget 1, over the {most} at budget 48")
    return ExperimentResult("Ablation: Grid Tree region budget (§4.3)", format_table(rows), {"rows": rows}, violations)
