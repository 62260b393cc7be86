"""One driver per paper table/figure (§6).

Every function here regenerates the rows or series of one evaluation artifact
at the (much smaller) scale its caller passes, and checks that the result
keeps the paper's shape.  A broken check is appended to
:attr:`ExperimentResult.violations` with its bound; ``python -m
repro.bench.cli run`` exits non-zero on any.  Each is bound to its scale by
one figure config in ``benchmarks/configs/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import FloodIndex, KdTreeIndex, ZOrderIndex
from repro.bench.harness import (
    IndexMeasurement,
    default_index_factories,
    expected_answers,
    learned_index_factories,
    measure_index,
    run_comparison,
)
from repro.bench.report import format_series, format_table, relative_factors
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
from repro.storage.scan import ScanExecutor

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


def _check_correct(violations: list[str], label: str, measurements: list[IndexMeasurement]) -> None:
    wrong = [m.index_name for m in measurements if not m.correct]
    _check(violations, not wrong, f"{label}: {', '.join(wrong)} answered differently from a full scan")


def _check_scans(
    violations: list[str],
    label: str,
    measurements: list[IndexMeasurement],
    baseline: str,
    bound: float,
) -> None:
    """Tsunami must scan at most ``bound`` x ``baseline``'s points per query."""
    scanned = {m.index_name: m.avg_points_scanned for m in measurements}
    _check(
        violations,
        scanned["tsunami"] <= scanned[baseline] * bound,
        f"{label}: tsunami scans {scanned['tsunami']:.1f} points/query, "
        f"over {bound:.2f}x {baseline}'s {scanned[baseline]:.1f}",
    )


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
        tsunami = TsunamiIndex()
        tsunami.build(table, workload)
        flood = FloodIndex()
        flood.build(table, workload)
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
    data: dict[str, list[IndexMeasurement]] = {}
    violations: list[str] = []
    scan_misses: list[str] = []
    for name in datasets:
        table, workload = load_dataset(
            name, num_rows=num_rows, queries_per_type=queries_per_type, seed=seed
        )
        measurements = run_comparison(table, workload, factories, dataset_name=name)
        data[name] = measurements
        throughput = {m.index_name: m.queries_per_second for m in measurements}
        speedups = relative_factors(throughput, reference="flood") if "flood" in throughput else {}
        for measurement in measurements:
            row = measurement.as_row()
            row["vs flood"] = (
                f"{speedups.get(measurement.index_name, float('nan')):.2f}x" if speedups else "-"
            )
            all_rows.append(row)

        _check_correct(violations, name, measurements)
        # Paper shape: Tsunami is the fastest learned index.
        _check(
            violations,
            throughput["tsunami"] >= throughput["flood"],
            f"{name}: tsunami serves {speedups['tsunami']:.2f}x flood's queries/s, under 1.00x",
        )
        _check_scans(scan_misses, name, measurements, "flood", 1.10)
        # Fig. 8: both learned indexes stay a small fraction of the data
        # (rows x 7 int64 columns).
        by_name = {m.index_name: m for m in measurements}
        data_bytes = by_name["tsunami"].num_rows * 8 * 7
        for index_name in ("tsunami", "flood"):
            size = by_name[index_name].index_size_bytes
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

    tsunami = TsunamiIndex()
    before = measure_index(tsunami, table, original, dataset_name="tpch")

    # The workload changes "at midnight": the old layout now serves new queries.
    expected_shifted = expected_answers(table, shifted)
    degraded_seconds = 0.0
    degraded_scanned = 0
    correct = True
    for position, query in enumerate(shifted):
        start = time.perf_counter()
        result = tsunami.execute(query)
        degraded_seconds += time.perf_counter() - start
        degraded_scanned += result.stats.points_scanned
        correct &= result.value == expected_shifted[position]

    reoptimize_seconds = tsunami.reoptimize(shifted)
    after = measure_index(tsunami, table, shifted, dataset_name="tpch", expected=expected_shifted)

    rows = [
        {
            "phase": "original workload (optimized)",
            "queries/s": round(before.queries_per_second, 1),
            "avg scanned": round(before.avg_points_scanned, 1),
            "correct": before.correct,
        },
        {
            "phase": "after shift (stale layout)",
            "queries/s": round(len(shifted) / degraded_seconds, 1) if degraded_seconds else float("inf"),
            "avg scanned": round(degraded_scanned / max(len(shifted), 1), 1),
            "correct": correct,
        },
        {
            "phase": f"after re-optimization ({reoptimize_seconds:.1f}s)",
            "queries/s": round(after.queries_per_second, 1),
            "avg scanned": round(after.avg_points_scanned, 1),
            "correct": after.correct,
        },
    ]
    data = {
        "before": before,
        "degraded_avg_scanned": degraded_scanned / max(len(shifted), 1),
        "degraded_avg_seconds": degraded_seconds / max(len(shifted), 1),
        "reoptimize_seconds": reoptimize_seconds,
        "after": after,
    }
    violations: list[str] = []
    _check(violations, before.correct, "original workload: wrong answers")
    _check(violations, after.correct, "after re-optimization: wrong answers")
    # Re-optimizing for the new workload must restore (or improve) the amount
    # of work per query relative to the stale layout.
    _check(
        violations,
        after.avg_points_scanned <= data["degraded_avg_scanned"] * 1.05,
        f"re-optimized layout scans {after.avg_points_scanned:.1f} points/query, "
        f"over 1.05x the stale layout's {data['degraded_avg_scanned']:.1f}",
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
        index = factory()
        index.build(table, workload)
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
        measurements = run_comparison(table, workload, factories, dataset_name=table.name)
        data[dims] = measurements
        for measurement in measurements:
            series[measurement.index_name].append(measurement.queries_per_second)
        _check_correct(violations, f"d={dims}", measurements)
        if correlated:
            # On correlated data Tsunami must not do more scan work than Flood.
            _check_scans(violations, f"d={dims}", measurements, "flood", 1.10)
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
        measurements = run_comparison(table, workload, factories, dataset_name=f"tpch_{rows}")
        data[rows] = measurements
        for measurement in measurements:
            series[measurement.index_name].append(measurement.queries_per_second)
        _check_correct(violations, f"{rows} rows", measurements)
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
        measurements = run_comparison(table, workload, factories, dataset_name=f"sel_{factor}")
        data[factor] = {"measurements": measurements, "avg_selectivity": stats.avg_selectivity}
        for measurement in measurements:
            series[measurement.index_name].append(measurement.queries_per_second)
        _check_correct(violations, f"factor {factor}", measurements)
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
        measurements = run_comparison(table, workload, factories, dataset_name=name)
        data[name] = measurements
        _check_correct(violations, name, measurements)
        # The full composition must not do more scan work than plain Flood.
        _check_scans(violations, name, measurements, "flood", 1.10)
        throughput = {m.index_name: m.queries_per_second for m in measurements}
        factors = relative_factors(throughput, reference="flood")
        for measurement in measurements:
            rows.append(
                {
                    "dataset": name,
                    "variant": measurement.index_name,
                    "queries/s": round(measurement.queries_per_second, 1),
                    "avg scanned": round(measurement.avg_points_scanned, 1),
                    "vs flood": f"{factors[measurement.index_name]:.2f}x",
                    "correct": measurement.correct,
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
            result = optimizer.optimize(table, workload)
            grid = AugmentedGrid(result.config)
            permutation = grid.fit(table)
            table.reorder(permutation)
            # Measure per-query wall-clock time and plan features on the fully
            # built grid, then fit the cost-model weights to the measurements
            # to quantify the model's relative error (the Fig. 12b error bars).
            executor = ScanExecutor(table)
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
