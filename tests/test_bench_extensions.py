"""Tests for the extension-ablation experiment drivers (repro.bench.extensions).

These run the drivers at a deliberately tiny scale; the assertions are about
structure and the qualitative ordering each driver exists to demonstrate, not
about absolute numbers (the figure configs in ``benchmarks/configs/`` run the
real scale).
"""

import pytest

from repro.bench.experiments import ExperimentResult
from repro.bench.extensions import (
    experiment_cost_weights,
    experiment_extended_baselines,
    experiment_incremental_reopt,
    experiment_outlier_mappings,
    experiment_region_budget,
)


class TestExtendedBaselines:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return experiment_extended_baselines(
            num_rows=4_000, queries_per_type=5, datasets=("tpch",), page_size=512
        )

    def test_returns_experiment_result_with_report(self, result):
        assert isinstance(result, ExperimentResult)
        assert "grid-file" in result.report
        assert "r-tree" in result.report

    def test_all_indexes_answer_correctly(self, result):
        for entries in result.data.values():
            assert all(entry["correct"] for entry in entries)

    def test_added_baselines_are_measured(self, result):
        names = {entry["index"] for entry in result.data["tpch"]}
        assert {"grid-file", "r-tree", "flood", "tsunami"} <= names


class TestOutlierMappings:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return experiment_outlier_mappings(num_rows=6_000, num_queries=20, partitions=32)

    def test_three_variants_reported(self, result):
        assert len(result.data) == 3
        assert "functional mapping (plain)" in result.data

    def test_outlier_buffer_beats_plain_mapping(self, result):
        plain = result.data["functional mapping (plain)"]["scanned"]
        buffered = result.data["functional mapping (outlier buffer)"]["scanned"]
        assert buffered < plain

    def test_mapping_variants_are_smaller_than_full_grid(self, result):
        grid = result.data["independent CDFs (no mapping)"]["size"]
        plain = result.data["functional mapping (plain)"]["size"]
        assert plain < grid


class TestIncrementalReopt:
    @pytest.fixture(scope="class")
    def result(self) -> ExperimentResult:
        return experiment_incremental_reopt(num_rows=6_000, queries_per_type=5, max_regions=2)

    def test_three_strategies_reported(self, result):
        assert set(result.data) == {"none", "incremental", "full"}

    def test_incremental_is_cheaper_than_full(self, result):
        assert (
            result.data["incremental"]["adaptation (s)"]
            < result.data["full"]["adaptation (s)"]
        )

    def test_incremental_never_hurts_scan_work(self, result):
        assert (
            result.data["incremental"]["avg points scanned (shifted)"]
            <= result.data["none"]["avg points scanned (shifted)"] * 1.10
        )


class TestDesignChoiceAblations:
    """At this scale the shapes may not hold; each must be flagged iff it breaks."""

    def test_cost_weights_sweep_w0(self):
        result = experiment_cost_weights(num_rows=2_000, queries_per_type=3)
        rows = result.data["rows"]
        assert [row["w0"] for row in rows] == [5.0, 50.0, 500.0]
        assert (rows[0]["grid cells"] >= rows[-1]["grid cells"]) == (result.violations == [])

    def test_region_budget_sweeps_max_regions(self):
        result = experiment_region_budget(num_rows=2_000, queries_per_type=3)
        rows = result.data["rows"]
        assert [row["max regions"] for row in rows] == [1, 8, 48]
        assert (rows[0]["regions"] <= rows[-1]["regions"]) == (result.violations == [])
