"""One driver per paper table/figure (§6).

Every function here regenerates the rows or series of one evaluation artifact
at the (much smaller) scale its caller passes, and checks that the result
keeps the paper's shape.  A broken check is appended to
:attr:`ExperimentResult.violations` with its bound; ``python -m
repro.bench.cli run`` exits non-zero on any.  Each is bound to its scale by
one figure config in ``benchmarks/configs/``.

Drivers that compare indexes measure each with the scenario runner's timed
pass, oracle and counters (:func:`measure_suite`, :func:`measure_pass`):
cold, one query at a time, on its own copy of the loaded table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.baselines import (
    FloodIndex,
    HyperOctreeIndex,
    KdTreeIndex,
    SingleDimensionIndex,
    ZOrderIndex,
)
from repro.baselines.base import ClusteredIndex
from repro.bench.report import format_series, format_table, relative_factors
from repro.bench.runner import _mismatches, _pass_counters, _serve
from repro.bench.workloads import ScenarioData
from repro.core.augmented_grid import AugmentedGrid
from repro.core.cost_model import CostModel
from repro.core.optimizer import (
    AdaptiveGradientDescent,
    BlackBoxOptimizer,
    GradientDescentOnly,
)
from repro.core.tsunami import TsunamiIndex
from repro.core.variants import AugmentedGridOnlyIndex, GridTreeOnlyIndex
from repro.datasets import (
    DATASETS,
    load_dataset,
    make_correlated_dataset,
    make_uniform_dataset,
    synthetic_scaling_workload,
    synthetic_templates,
)
from repro.datasets.tpch import make_tpch_dataset, tpch_shifted_templates, tpch_templates
from repro.datasets.workload_gen import generate_workload, scale_template_selectivities
from repro.query.engine import QueryEngine
from repro.query.workload import Workload
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

IndexFactory = Callable[[], ClusteredIndex]

ALL_DATASETS = ("tpch", "taxi", "perfmon", "stocks")


@dataclass
class ExperimentResult:
    """A generic experiment outcome: a report string, the raw data behind it,
    and every paper-shape check the data broke."""

    name: str
    report: str
    data: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        return f"== {self.name} ==\n{self.report}"


def _check(violations: list[str], holds: bool, message: str) -> None:
    """Record ``message`` unless the check ``holds``."""
    if not holds:
        violations.append(message)


def _check_correct(violations: list[str], label: str, entries: list[dict]) -> None:
    wrong = [entry["index"] for entry in entries if not entry["correct"]]
    _check(violations, not wrong, f"{label}: {', '.join(wrong)} answered differently from a full scan")


def _check_scans(
    violations: list[str],
    label: str,
    entries: list[dict],
    baseline: str,
    bound: float,
) -> None:
    """Tsunami must scan at most ``bound`` x ``baseline``'s points per query."""
    scanned = {entry["index"]: entry["avg_points_scanned"] for entry in entries}
    _check(
        violations,
        scanned["tsunami"] <= scanned[baseline] * bound,
        f"{label}: tsunami scans {scanned['tsunami']:.1f} points/query, "
        f"over {bound:.2f}x {baseline}'s {scanned[baseline]:.1f}",
    )


# ---------------------------------------------------------------------------
# Measuring an index: the scenario runner's timed pass, oracle and counters
# ---------------------------------------------------------------------------


class _ServedAlone:
    """A figure's serving stack: each query alone, through ``QueryEngine.run``."""

    def __init__(self, index: ClusteredIndex) -> None:
        self.engine = QueryEngine(index)

    def run_segment(self, queries: list) -> list:
        return [self.engine.run(query) for query in queries]


def measure_pass(name: str, index: ClusteredIndex, table: Table, workload: Workload) -> dict:
    """One cold timed pass of ``workload`` over the built ``index``.

    Each query is served alone, and every answer is checked against a full
    scan of ``table``.  The entry has a scenario report's index keys, plus
    the index's size, its build split and its ``describe()``.
    """
    data = ScenarioData(table=table, build_workload=workload, stream=list(workload))
    served = _serve(_ServedAlone(index), data)
    build = index.build_report
    return {
        "index": name,
        "kind": index.name,
        "variant": "plain",
        "build_seconds": round(build.total_seconds, 4),
        **_pass_counters(served, _mismatches(served, data)),
        "index_size_bytes": index.index_size_bytes(),
        "sort_seconds": round(build.sort_seconds, 4),
        "optimize_seconds": round(build.optimize_seconds, 4),
        "describe": index.describe(),
    }


def _own_copy(table: Table) -> Table:
    """A copy of ``table`` for one index to build on.

    A build re-clusters its table in place, so a shared table would hand
    every optimizer the row order the previous build left.  ``table`` keeps
    its order and stays the full-scan oracle's table.
    """
    return table.subset(np.arange(table.num_rows), name=table.name)


def measure_suite(
    table: Table, workload: Workload, factories: Mapping[str, IndexFactory]
) -> list[dict]:
    """Build every index of ``factories`` on its own copy of ``table`` and
    measure it on ``workload``."""
    return [
        measure_pass(name, factory().build(_own_copy(table), workload), table, workload)
        for name, factory in factories.items()
    ]


def _row(entry: dict, dataset: str, num_rows: int) -> dict:
    """One index's line in a Fig. 7-style table."""
    return {
        "index": entry["index"],
        "dataset": dataset,
        "rows": num_rows,
        "queries/s": entry["queries_per_second"],
        "avg query (ms)": round(entry["seconds_total"] / max(entry["num_queries"], 1) * 1e3, 3),
        "avg scanned": entry["avg_points_scanned"],
        "avg cell ranges": entry["avg_cell_ranges"],
        "index size (KiB)": round(entry["index_size_bytes"] / 1024, 1),
        "build (s)": round(entry["build_seconds"], 2),
        "optimize (s)": round(entry["optimize_seconds"], 2),
        "correct": entry["correct"],
    }


def default_index_factories(page_size: int = 2048) -> dict[str, IndexFactory]:
    """The standard index suite compared in Fig. 7 / Fig. 8."""
    return {
        "single-dim": SingleDimensionIndex,
        "z-order": lambda: ZOrderIndex(page_size=page_size),
        "hyperoctree": lambda: HyperOctreeIndex(page_size=page_size),
        "kd-tree": lambda: KdTreeIndex(page_size=page_size),
        **learned_index_factories(),
    }


def learned_index_factories() -> dict[str, IndexFactory]:
    """Only the learned indexes (used by the scaling sweeps to keep runtime low)."""
    return {
        "flood": lambda: FloodIndex(target_points_per_cell=128),
        "tsunami": TsunamiIndex,
    }


# ---------------------------------------------------------------------------
# Table 3 — dataset and query characteristics
# ---------------------------------------------------------------------------


def experiment_table3(
    num_rows: int, queries_per_type: int, seed: int = 0
) -> ExperimentResult:
    """Regenerate Table 3: rows, query types, dimensions, and size per dataset."""
    rows = []
    data = {}
    violations: list[str] = []
    for name in ALL_DATASETS:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        stats = workload.statistics(table)
        rows.append(
            {
                "dataset": name,
                "records": table.num_rows,
                "query types": stats.num_query_types,
                "dimensions": table.num_dimensions,
                "size (MiB)": round(table.size_bytes() / 2**20, 2),
                "selectivity": f"{stats.min_selectivity:.3%}..{stats.max_selectivity:.3%}",
                "avg selectivity": f"{stats.avg_selectivity:.3%}",
            }
        )
        data[name] = {"table": stats, "paper_rows": DATASETS[name].paper_rows}
        _check(violations, stats.num_query_types >= 5, f"{name}: {stats.num_query_types} query types, under 5")
        # The paper's workloads sit in the sub-5% selectivity band on average.
        _check(
            violations,
            stats.avg_selectivity < 0.05,
            f"{name}: average selectivity {stats.avg_selectivity:.2%}, not under 5%",
        )
    _check(violations, set(data) == set(ALL_DATASETS), f"datasets {sorted(data)}, not {sorted(ALL_DATASETS)}")
    return ExperimentResult("Table 3: dataset characteristics", format_table(rows), data, violations)


# ---------------------------------------------------------------------------
# Table 4 — index statistics after optimization
# ---------------------------------------------------------------------------


def experiment_table4(
    num_rows: int,
    queries_per_type: int,
    datasets: tuple[str, ...] = ALL_DATASETS,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Table 4: Grid Tree shape, per-region statistics, and cell counts."""
    rows = []
    data = {}
    violations: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        tsunami = TsunamiIndex().build(_own_copy(table), workload)
        flood = FloodIndex().build(_own_copy(table), workload)
        stats = tsunami.describe()
        rows.append(
            {
                "dataset": name,
                "GT nodes": stats["num_grid_tree_nodes"],
                "GT depth": stats["grid_tree_depth"],
                "regions": stats["num_leaf_regions"],
                "min pts/region": stats["min_points_per_region"],
                "median pts/region": stats["median_points_per_region"],
                "max pts/region": stats["max_points_per_region"],
                "avg FMs": round(stats["avg_functional_mappings_per_region"], 2),
                "avg CCDFs": round(stats["avg_conditional_cdfs_per_region"], 2),
                "tsunami cells": stats["total_grid_cells"],
                "flood cells": flood.num_cells,
            }
        )
        data[name] = {"tsunami": stats, "flood_cells": flood.num_cells}
        # The Grid Tree must stay lightweight (the paper reports depth <= 4
        # and a few dozen regions).
        depth, regions = stats["grid_tree_depth"], stats["num_leaf_regions"]
        _check(violations, depth <= 6, f"{name}: Grid Tree depth {depth}, over 6")
        _check(violations, 1 <= regions <= 96, f"{name}: {regions} regions, outside [1, 96]")
        _check(
            violations,
            stats["min_points_per_region"] <= stats["max_points_per_region"],
            f"{name}: min points per region over max",
        )
        _check(violations, flood.num_cells >= 1, f"{name}: flood has {flood.num_cells} cells")
    return ExperimentResult(
        "Table 4: index statistics after optimization", format_table(rows), data, violations
    )


# ---------------------------------------------------------------------------
# Fig. 7 / Fig. 8 — overall query throughput and index size
# ---------------------------------------------------------------------------


def experiment_overall(
    num_rows: int,
    queries_per_type: int,
    datasets: tuple[str, ...] = ALL_DATASETS,
    include_nonlearned: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 7 (query throughput) and Fig. 8 (index size) in one pass."""
    factories = default_index_factories() if include_nonlearned else learned_index_factories()
    all_rows = []
    data: dict[str, list[dict]] = {}
    violations: list[str] = []
    scan_misses: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        entries = measure_suite(table, workload, factories)
        data[name] = entries
        throughput = {entry["index"]: entry["queries_per_second"] for entry in entries}
        speedups = relative_factors(throughput, reference="flood") if "flood" in throughput else {}
        for entry in entries:
            row = _row(entry, name, table.num_rows)
            row["vs flood"] = (
                f"{speedups.get(entry['index'], float('nan')):.2f}x" if speedups else "-"
            )
            all_rows.append(row)

        _check_correct(violations, name, entries)
        # Paper shape: Tsunami is the fastest learned index.
        _check(
            violations,
            throughput["tsunami"] >= throughput["flood"],
            f"{name}: tsunami serves {speedups['tsunami']:.2f}x flood's queries/s, under 1.00x",
        )
        _check_scans(scan_misses, name, entries, "flood", 1.10)
        # Fig. 8: both learned indexes stay a small fraction of the data
        # (rows x 7 int64 columns).
        by_name = {entry["index"]: entry for entry in entries}
        data_bytes = table.num_rows * 8 * 7
        for index_name in ("tsunami", "flood"):
            size = by_name[index_name]["index_size_bytes"]
            _check(
                violations,
                size < 0.25 * data_bytes,
                f"{name}: {index_name} index takes {size} B, not under 0.25 x {data_bytes} B",
            )
    # At reduced scale one dataset may scan more than Flood; more may not.
    _check(
        violations,
        len(scan_misses) <= 1,
        "tsunami over 1.10x flood's scan work on more than one dataset: " + "; ".join(scan_misses),
    )
    return ExperimentResult(
        "Fig. 7 / Fig. 8: overall throughput and index size", format_table(all_rows), data, violations
    )


# ---------------------------------------------------------------------------
# Fig. 9 — adaptability to workload shift and index creation time
# ---------------------------------------------------------------------------


def experiment_adaptability(
    num_rows: int,
    queries_per_type: int,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 9a: throughput before the shift, after it, and after re-optimizing."""
    table = make_tpch_dataset(num_rows=num_rows, seed=seed)
    original = generate_workload(
        table, tpch_templates(queries_per_type), seed=1, name="tpch_original"
    )
    shifted = generate_workload(
        table, tpch_shifted_templates(queries_per_type), seed=2, name="tpch_shifted"
    )

    # Three passes over one index: the optimized layout, the stale layout
    # once the workload changes "at midnight", and the re-optimized layout.
    tsunami = TsunamiIndex().build(_own_copy(table), original)
    before = measure_pass("tsunami", tsunami, table, original)
    degraded = measure_pass("tsunami", tsunami, table, shifted)
    reoptimize_seconds = tsunami.reoptimize(shifted)
    after = measure_pass("tsunami", tsunami, table, shifted)

    phases = {
        "original workload (optimized)": before,
        "after shift (stale layout)": degraded,
        f"after re-optimization ({reoptimize_seconds:.1f}s)": after,
    }
    rows = [
        {
            "phase": phase,
            "queries/s": entry["queries_per_second"],
            "avg scanned": entry["avg_points_scanned"],
            "correct": entry["correct"],
        }
        for phase, entry in phases.items()
    ]
    data = {
        "before": before,
        "degraded": degraded,
        "reoptimize_seconds": reoptimize_seconds,
        "after": after,
    }
    violations: list[str] = []
    for phase, entry in phases.items():
        _check(violations, entry["correct"], f"{phase}: wrong answers")
    # Re-optimizing for the new workload must restore (or improve) the amount
    # of work per query relative to the stale layout.
    _check(
        violations,
        after["avg_points_scanned"] <= degraded["avg_points_scanned"] * 1.05,
        f"re-optimized layout scans {after['avg_points_scanned']:.1f} points/query, "
        f"over 1.05x the stale layout's {degraded['avg_points_scanned']:.1f}",
    )
    _check(violations, reoptimize_seconds > 0, "re-optimization took no time")
    return ExperimentResult("Fig. 9a: adaptability to workload shift", format_table(rows), data, violations)


def experiment_creation_time(
    num_rows: int,
    queries_per_type: int,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 9b: per-index build time split into sorting vs optimization."""
    table, workload = load_dataset(
        "tpch", num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
    )
    factories = default_index_factories()
    rows = []
    data = {}
    for name, factory in factories.items():
        index = factory().build(_own_copy(table), workload)
        rows.append(
            {
                "index": name,
                "sort (s)": round(index.build_report.sort_seconds, 3),
                "optimize (s)": round(index.build_report.optimize_seconds, 3),
                "total (s)": round(index.build_report.total_seconds, 3),
            }
        )
        data[name] = index.build_report
    violations: list[str] = []
    # Non-learned indexes pay no optimization time; learned indexes do.
    kd_tree, flood, tsunami = data["kd-tree"], data["flood"], data["tsunami"]
    _check(
        violations,
        kd_tree.optimize_seconds < tsunami.optimize_seconds,
        f"kd-tree optimize {kd_tree.optimize_seconds:.3f} s, not under tsunami's {tsunami.optimize_seconds:.3f} s",
    )
    _check(violations, flood.optimize_seconds > 0, "flood optimize took no time")
    _check(violations, tsunami.total_seconds > 0, "tsunami build took no time")
    return ExperimentResult("Fig. 9b: index creation time", format_table(rows), data, violations)


# ---------------------------------------------------------------------------
# Fig. 10 — scaling with dimensionality (uncorrelated vs correlated)
# ---------------------------------------------------------------------------


def experiment_dimensions(
    num_rows: int,
    queries_per_type: int,
    dimension_counts: tuple[int, ...] = (4, 8, 12),
    correlated: bool = True,
    include_nonlearned: bool = True,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate one panel of Fig. 10: throughput vs number of dimensions."""
    factories = (
        {
            **learned_index_factories(),
            "kd-tree": lambda: KdTreeIndex(page_size=2048),
            "z-order": lambda: ZOrderIndex(page_size=2048),
        }
        if include_nonlearned
        else learned_index_factories()
    )
    series: dict[str, list[float]] = {name: [] for name in factories}
    data = {}
    violations: list[str] = []
    for dims in dimension_counts:
        if correlated:
            table = make_correlated_dataset(num_rows=num_rows, num_dimensions=dims, seed=seed)
        else:
            table = make_uniform_dataset(num_rows=num_rows, num_dimensions=dims, seed=seed)
        workload = synthetic_scaling_workload(
            table, queries_per_type=queries_per_type, seed=seed + 1
        )
        entries = measure_suite(table, workload, factories)
        data[dims] = entries
        for entry in entries:
            series[entry["index"]].append(entry["queries_per_second"])
        _check_correct(violations, f"d={dims}", entries)
        if correlated:
            # On correlated data Tsunami must not do more scan work than Flood.
            _check_scans(violations, f"d={dims}", entries, "flood", 1.10)
    kind = "correlated" if correlated else "uncorrelated"
    report = format_series("dimensions", list(dimension_counts), series)
    return ExperimentResult(f"Fig. 10: throughput vs dimensionality ({kind})", report, data, violations)


# ---------------------------------------------------------------------------
# Fig. 11 — scaling with dataset size and query selectivity
# ---------------------------------------------------------------------------


def experiment_dataset_size(
    row_counts: tuple[int, ...],
    queries_per_type: int,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 11a: throughput vs dataset size on the TPC-H stand-in."""
    factories = {
        **learned_index_factories(),
        "kd-tree": lambda: KdTreeIndex(page_size=2048),
    }
    series: dict[str, list[float]] = {name: [] for name in factories}
    data = {}
    violations: list[str] = []
    for rows in row_counts:
        table, workload = load_dataset(
            "tpch", num_rows=rows, queries_per_type=queries_per_type, seed=seed
        )
        entries = measure_suite(table, workload, factories)
        data[rows] = entries
        for entry in entries:
            series[entry["index"]].append(entry["queries_per_second"])
        _check_correct(violations, f"{rows} rows", entries)
    # Tsunami's advantage over Flood in scan work must hold at the largest size.
    _check_scans(violations, f"{row_counts[-1]} rows", data[row_counts[-1]], "flood", 1.10)
    report = format_series("rows", list(row_counts), series)
    return ExperimentResult("Fig. 11a: throughput vs dataset size", report, data, violations)


def experiment_selectivity(
    num_rows: int,
    queries_per_type: int,
    selectivity_factors: tuple[float, ...] = (0.25, 1.0, 4.0),
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 11b: throughput vs query selectivity on the correlated synthetic data."""
    table = make_correlated_dataset(num_rows=num_rows, num_dimensions=8, seed=seed)
    base_templates = synthetic_templates(
        num_dimensions=8, queries_per_type=queries_per_type
    )
    factories = learned_index_factories()
    series: dict[str, list[float]] = {name: [] for name in factories}
    selectivities = []
    data = {}
    violations: list[str] = []
    for factor in selectivity_factors:
        templates = scale_template_selectivities(base_templates, factor)
        workload = generate_workload(table, templates, seed=seed + 3, name=f"sel_{factor}")
        stats = workload.statistics(table)
        selectivities.append(round(stats.avg_selectivity, 6))
        entries = measure_suite(table, workload, factories)
        data[factor] = {"measurements": entries, "avg_selectivity": stats.avg_selectivity}
        for entry in entries:
            series[entry["index"]].append(entry["queries_per_second"])
        _check_correct(violations, f"factor {factor}", entries)
    averages = [info["avg_selectivity"] for info in data.values()]
    _check(violations, averages == sorted(averages), f"average selectivities {averages} do not rise with the factor")
    report = format_series("avg selectivity", selectivities, series)
    return ExperimentResult("Fig. 11b: throughput vs query selectivity", report, data, violations)


# ---------------------------------------------------------------------------
# Fig. 12a — component drill-down
# ---------------------------------------------------------------------------


def experiment_components(
    num_rows: int,
    queries_per_type: int,
    datasets: tuple[str, ...] = ("tpch", "taxi"),
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 12a: Flood vs Augmented-Grid-only vs Grid-Tree-only vs Tsunami."""
    factories = {
        "flood": FloodIndex,
        "augmented-grid-only": AugmentedGridOnlyIndex,
        "grid-tree-only": GridTreeOnlyIndex,
        "tsunami": TsunamiIndex,
    }
    rows = []
    data = {}
    violations: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        entries = measure_suite(table, workload, factories)
        data[name] = entries
        _check_correct(violations, name, entries)
        # The full composition must not do more scan work than plain Flood.
        _check_scans(violations, name, entries, "flood", 1.10)
        throughput = {entry["index"]: entry["queries_per_second"] for entry in entries}
        factors = relative_factors(throughput, reference="flood")
        for entry in entries:
            rows.append(
                {
                    "dataset": name,
                    "variant": entry["index"],
                    "queries/s": entry["queries_per_second"],
                    "avg scanned": entry["avg_points_scanned"],
                    "vs flood": f"{factors[entry['index']]:.2f}x",
                    "correct": entry["correct"],
                }
            )
    return ExperimentResult("Fig. 12a: component drill-down", format_table(rows), data, violations)


# ---------------------------------------------------------------------------
# Fig. 12b — optimization methods and cost-model accuracy
# ---------------------------------------------------------------------------


def experiment_optimizers(
    num_rows: int,
    queries_per_type: int,
    datasets: tuple[str, ...] = ("tpch",),
    blackbox_iterations: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 12b: AGD vs GD vs Black-Box vs AGD-NI, predicted vs actual cost."""
    rows = []
    data = {}
    violations: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        methods = {
            "AGD": AdaptiveGradientDescent(),
            "GD": GradientDescentOnly(),
            "Black Box": BlackBoxOptimizer(iterations=blackbox_iterations),
            "AGD-NI": AdaptiveGradientDescent(naive_init=True),
        }
        data[name] = {}
        for method_name, optimizer in methods.items():
            clustered = _own_copy(table)
            result = optimizer.optimize(clustered, workload)
            grid = AugmentedGrid(result.config)
            clustered.reorder(grid.fit(clustered))
            # Measure per-query wall-clock time and plan features on the fully
            # built grid, then fit the cost-model weights to the measurements
            # to quantify the model's relative error (the Fig. 12b error bars).
            executor = ScanExecutor(clustered)
            per_query_seconds = []
            features = []
            for query in workload:
                _, feature = grid.plan(query)
                features.append(feature)
                ranges = grid.ranges_for_query(query)
                start = time.perf_counter()
                executor.execute(
                    ranges,
                    query.filters(),
                    aggregate=query.aggregate,
                    aggregate_column=query.aggregate_column,
                )
                per_query_seconds.append(time.perf_counter() - start)
            avg_actual = sum(per_query_seconds) / max(len(per_query_seconds), 1)
            calibrated = CostModel.calibrate(features, per_query_seconds)
            model_error = calibrated.relative_error(features, per_query_seconds)
            rows.append(
                {
                    "dataset": name,
                    "method": method_name,
                    "predicted cost": round(result.predicted_cost, 1),
                    "actual avg query (ms)": round(avg_actual * 1e3, 3),
                    "cost model error": f"{model_error:.1%}",
                    # The weights fitted to the measured scans (§5.3.1's
                    # model has w0/w1 = 50).
                    "w0 (us/range)": round(calibrated.w0 * 1e6, 2),
                    "w1 (ns/value)": round(calibrated.w1 * 1e9, 2),
                    "w0/w1": round(calibrated.w0 / calibrated.w1) if calibrated.w1 > 0 else "inf",
                    "evaluations": result.evaluations,
                    "skeleton": result.config.skeleton.describe(),
                }
            )
            data[name][method_name] = {
                "result": result,
                "actual_avg_seconds": avg_actual,
                "per_query_seconds": per_query_seconds,
                "features": features,
                "calibrated": calibrated,
                "model_error": model_error,
            }
            _check(violations, avg_actual > 0, f"{name}: {method_name} grid measured no query time")
        _check(violations, len(data[name]) == 4, f"{name}: {len(data[name])} methods, not 4")
        # AGD must find a configuration at least as good as plain GD
        # (predicted cost is the optimization objective).
        agd, gd = (data[name][method]["result"].predicted_cost for method in ("AGD", "GD"))
        _check(violations, agd <= gd * 1.05, f"{name}: AGD predicted cost {agd:.1f}, over 1.05x GD's {gd:.1f}")
    return ExperimentResult(
        "Fig. 12b: optimization method comparison", format_table(rows), data, violations
    )
