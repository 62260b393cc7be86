"""Tests for figure measurement (the scenario runner's pass) and report formatting."""

import numpy as np
import pytest

from repro.baselines import KdTreeIndex, SingleDimensionIndex
from repro.baselines.base import QueryResult
from repro.bench.experiments import (
    default_index_factories,
    learned_index_factories,
    measure_suite,
)
from repro.bench.report import format_series, format_table, relative_factors
from repro.bench.runner import _INDEX_KEYS


class _OffByOne(KdTreeIndex):
    """A kd-tree whose every answer is one too high."""

    def execute_batch(self, queries):
        results = super().execute_batch(queries)
        return [QueryResult(result.value + 1, result.stats) for result in results]


class TestMeasureIndex:
    def test_measurement_fields(self, fresh_table, fresh_workload):
        (entry,) = measure_suite(
            fresh_table, fresh_workload, {"kd-tree": lambda: KdTreeIndex(page_size=512)}
        )
        assert entry["correct"] and entry["mismatches"] == 0
        assert entry["index"] == entry["kind"] == "kd-tree"
        assert entry["num_queries"] == len(fresh_workload)
        assert entry["seconds_total"] > 0
        assert entry["queries_per_second"] > 0
        assert entry["avg_points_scanned"] > 0
        assert entry["index_size_bytes"] > 0
        assert entry["rows_inserted"] == 0

    def test_as_row_keys(self, fresh_table, fresh_workload):
        (entry,) = measure_suite(fresh_table, fresh_workload, {"single-dim": SingleDimensionIndex})
        # A scenario report's index entry, plus size, build split and describe().
        assert {*_INDEX_KEYS, "build_seconds", "avg_cell_ranges", "values_scanned"} <= set(entry)
        assert {"index_size_bytes", "sort_seconds", "optimize_seconds"} <= set(entry)
        assert entry["describe"]["name"] == "single-dim"

    def test_incorrect_expected_detected(self, fresh_table, fresh_workload):
        factories = {"off-by-one": lambda: _OffByOne(page_size=512)}
        (entry,) = measure_suite(fresh_table, fresh_workload, factories)
        assert not entry["correct"]
        assert entry["mismatches"] == len(fresh_workload)


class TestRunComparison:
    def test_all_factories_measured(self, fresh_table, fresh_workload):
        factories = {
            "single-dim": SingleDimensionIndex,
            "kd-tree": lambda: KdTreeIndex(page_size=512),
        }
        entries = measure_suite(fresh_table, fresh_workload, factories)
        assert [entry["index"] for entry in entries] == ["single-dim", "kd-tree"]
        assert all(entry["correct"] for entry in entries)

    def test_each_index_builds_on_its_own_copy(self, fresh_table, fresh_workload):
        loaded = {name: fresh_table.values(name).copy() for name in fresh_table.column_names}
        factories = {"kd-tree": lambda: KdTreeIndex(page_size=512), "single-dim": SingleDimensionIndex}
        measure_suite(fresh_table, fresh_workload, factories)
        for name, values in loaded.items():
            assert np.array_equal(fresh_table.values(name), values)

    def test_default_factories_cover_paper_suite(self):
        names = set(default_index_factories())
        assert {"single-dim", "z-order", "hyperoctree", "kd-tree", "flood", "tsunami"} == names

    def test_learned_factories(self):
        assert set(learned_index_factories()) == {"flood", "tsunami"}


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "222" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_missing_key(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "b" in text

    def test_format_series(self):
        text = format_series("x", [1, 2], {"tsunami": [10.0, 20.0], "flood": [5.0, 8.0]})
        assert "tsunami" in text and "flood" in text
        assert len(text.splitlines()) == 4

    def test_relative_factors_higher_better(self):
        factors = relative_factors({"flood": 10.0, "tsunami": 30.0}, reference="flood")
        assert factors["tsunami"] == pytest.approx(3.0)
        assert factors["flood"] == pytest.approx(1.0)

    def test_relative_factors_lower_better(self):
        factors = relative_factors(
            {"flood": 100.0, "tsunami": 25.0}, reference="flood", higher_is_better=False
        )
        assert factors["tsunami"] == pytest.approx(4.0)

    def test_relative_factors_unknown_reference(self):
        with pytest.raises(KeyError):
            relative_factors({"a": 1.0}, reference="missing")
