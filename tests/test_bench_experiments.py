"""Smoke tests for the per-figure experiment drivers (tiny scales).

The figure configs in ``benchmarks/configs/`` run these drivers at larger
scale; here we only check that every driver runs end-to-end, produces a
report, and returns correct measurements.
"""

from repro.bench.experiments import (
    experiment_adaptability,
    experiment_components,
    experiment_creation_time,
    experiment_dataset_size,
    experiment_dimensions,
    experiment_optimizers,
    experiment_overall,
    experiment_selectivity,
    experiment_table3,
    experiment_table4,
)
from repro.core.tsunami import TsunamiIndex

ROWS = 4_000
QUERIES = 4


def test_table3_reports_all_datasets():
    result = experiment_table3(num_rows=ROWS, queries_per_type=QUERIES)
    assert set(result.data) == {"tpch", "taxi", "perfmon", "stocks"}
    assert "dataset" in result.report


def test_table4_statistics():
    result = experiment_table4(num_rows=ROWS, queries_per_type=QUERIES, datasets=("tpch",))
    stats = result.data["tpch"]["tsunami"]
    assert stats["num_leaf_regions"] >= 1
    assert result.data["tpch"]["flood_cells"] >= 1


def test_overall_comparison_learned_only():
    result = experiment_overall(
        num_rows=ROWS, queries_per_type=QUERIES, datasets=("taxi",), include_nonlearned=False
    )
    entries = result.data["taxi"]
    assert {entry["index"] for entry in entries} == {"flood", "tsunami"}
    assert all(entry["correct"] for entry in entries)


def test_adaptability_experiment():
    result = experiment_adaptability(num_rows=ROWS, queries_per_type=QUERIES)
    assert result.data["reoptimize_seconds"] > 0
    before, degraded, after = (result.data[phase] for phase in ("before", "degraded", "after"))
    assert before["correct"] and degraded["correct"] and after["correct"]
    # Re-optimizing for the shifted workload must not scan more than the stale layout.
    assert after["avg_points_scanned"] <= degraded["avg_points_scanned"] * 1.05


def test_adaptability_builds_twice(monkeypatch):
    # One build for the original workload and the one inside reoptimize(),
    # whose layout the re-optimized pass serves.
    builds = []
    real_build = TsunamiIndex.build

    def counting_build(self, table, workload=None):
        builds.append(workload.name)
        return real_build(self, table, workload)

    monkeypatch.setattr(TsunamiIndex, "build", counting_build)
    experiment_adaptability(num_rows=ROWS, queries_per_type=QUERIES)
    assert builds == ["tpch_original", "tpch_shifted"]


def test_creation_time_experiment():
    result = experiment_creation_time(num_rows=ROWS, queries_per_type=QUERIES)
    assert set(result.data) == {"single-dim", "z-order", "hyperoctree", "kd-tree", "flood", "tsunami"}
    assert result.data["tsunami"].optimize_seconds > 0


def test_dimensions_experiment():
    result = experiment_dimensions(
        num_rows=ROWS,
        queries_per_type=QUERIES,
        dimension_counts=(4,),
        correlated=True,
        include_nonlearned=False,
    )
    assert all(entry["correct"] for entry in result.data[4])


def test_dataset_size_experiment():
    result = experiment_dataset_size(row_counts=(2_000, 4_000), queries_per_type=QUERIES)
    assert set(result.data) == {2_000, 4_000}


def test_selectivity_experiment():
    result = experiment_selectivity(
        num_rows=ROWS, queries_per_type=QUERIES, selectivity_factors=(1.0,)
    )
    assert 1.0 in result.data
    assert all(entry["correct"] for entry in result.data[1.0]["measurements"])


def test_components_experiment():
    result = experiment_components(num_rows=ROWS, queries_per_type=QUERIES, datasets=("tpch",))
    variants = {entry["index"] for entry in result.data["tpch"]}
    assert variants == {"flood", "augmented-grid-only", "grid-tree-only", "tsunami"}
    assert all(entry["correct"] for entry in result.data["tpch"])


def test_optimizers_experiment():
    result = experiment_optimizers(
        num_rows=ROWS, queries_per_type=QUERIES, datasets=("tpch",), blackbox_iterations=1
    )
    methods = set(result.data["tpch"])
    assert methods == {"AGD", "GD", "Black Box", "AGD-NI"}
    for info in result.data["tpch"].values():
        assert info["actual_avg_seconds"] > 0
