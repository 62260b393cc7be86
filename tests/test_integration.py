"""Integration tests: realistic dataset/workload pairs through the full stack.

These are the closest tests to the paper's evaluation: every index must return
exactly the same answers as a full scan on every generated dataset, and the
learned indexes must show the qualitative advantages the paper claims
(Tsunami scans no more than Flood on skewed/correlated workloads).
"""

import pytest

from repro.baselines import FloodIndex, KdTreeIndex, flood
from repro.bench.experiments import measure_suite
from repro.core import tsunami
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.datasets import load_dataset, make_correlated_dataset, synthetic_scaling_workload
from repro.query.engine import execute_full_scan


def sample_rows(monkeypatch, rows: int) -> None:
    """Flood's and Tsunami's optimizers sample ``rows`` rows: faster builds."""
    monkeypatch.setattr(flood, "SAMPLE_ROWS", rows)
    monkeypatch.setattr(tsunami, "OPTIMIZER_SAMPLE_ROWS", rows)


def expected_answers(table, workload) -> list[float]:
    """Ground-truth answers for every query, computed by full scans."""
    return [execute_full_scan(table, query)[0] for query in workload]


@pytest.mark.parametrize("dataset", ["tpch", "taxi", "perfmon", "stocks"])
def test_all_indexes_agree_with_full_scan(dataset, monkeypatch):
    sample_rows(monkeypatch, 3_000)
    table, workload = load_dataset(dataset, num_rows=8_000, queries_per_type=6)
    factories = {
        "kd-tree": lambda: KdTreeIndex(page_size=1024),
        "flood": lambda: FloodIndex(optimizer_iterations=1),
        "tsunami": lambda: TsunamiIndex(TsunamiConfig(optimizer_iterations=1)),
    }
    for entry in measure_suite(table, workload, factories):
        assert entry["correct"], f"{entry['index']} wrong on {dataset}"


def test_tsunami_beats_flood_on_scanned_points_for_skewed_taxi(monkeypatch):
    sample_rows(monkeypatch, 5_000)
    table, workload = load_dataset("taxi", num_rows=15_000, queries_per_type=12)
    expected = expected_answers(table, workload)
    flood_index = FloodIndex(optimizer_iterations=2)
    flood_index.build(table, workload)
    _, flood_stats = flood_index.execute_workload(workload)

    index = TsunamiIndex(TsunamiConfig(optimizer_iterations=2))
    index.build(table, workload)
    results, tsunami_stats = index.execute_workload(workload)

    assert [r.value for r in results] == expected
    assert tsunami_stats.points_scanned <= flood_stats.points_scanned


def test_augmented_grid_exploits_correlation_on_synthetic_data(monkeypatch):
    sample_rows(monkeypatch, 5_000)
    table = make_correlated_dataset(num_rows=15_000, num_dimensions=6, seed=3)
    workload = synthetic_scaling_workload(table, queries_per_type=15, seed=4)
    expected = expected_answers(table, workload)

    flood_index = FloodIndex(optimizer_iterations=2)
    flood_index.build(table, workload)
    _, flood_stats = flood_index.execute_workload(workload)

    # Default Tsunami configuration (the one the benchmarks use).
    index = TsunamiIndex()
    index.build(table, workload)
    results, tsunami_stats = index.execute_workload(workload)

    assert [r.value for r in results] == expected
    assert tsunami_stats.points_scanned <= flood_stats.points_scanned * 1.05


def test_rebuilding_on_same_table_is_idempotent(monkeypatch):
    sample_rows(monkeypatch, 3_000)
    table, workload = load_dataset("stocks", num_rows=6_000, queries_per_type=5)
    expected = expected_answers(table, workload)
    index = TsunamiIndex(TsunamiConfig(optimizer_iterations=1))
    index.build(table, workload)
    index.build(table, workload)  # rebuild over the already-clustered table
    assert [index.execute(q).value for q in workload] == expected


def test_workload_statistics_are_in_paper_selectivity_band():
    table, workload = load_dataset("tpch", num_rows=20_000, queries_per_type=10)
    stats = workload.statistics(table)
    # The paper's workloads have average query selectivities below ~1.5%.
    assert stats.avg_selectivity < 0.05
    assert stats.num_query_types == 5
