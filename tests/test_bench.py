"""Tests for the benchmark harness and report formatting."""

import numpy as np
import pytest

from repro.baselines import KdTreeIndex, SingleDimensionIndex
from repro.bench.harness import (
    default_index_factories,
    expected_answers,
    learned_index_factories,
    measure_index,
    run_comparison,
    tune_page_size,
)
from repro.bench.report import format_series, format_table, relative_factors


class TestMeasureIndex:
    def test_measurement_fields(self, fresh_table, fresh_workload):
        measurement = measure_index(
            KdTreeIndex(page_size=512), fresh_table, fresh_workload, dataset_name="toy"
        )
        assert measurement.correct
        assert measurement.dataset == "toy"
        assert measurement.num_queries == len(fresh_workload)
        assert measurement.avg_query_seconds > 0
        assert measurement.queries_per_second > 0
        assert measurement.avg_points_scanned > 0
        assert measurement.index_size_bytes > 0

    def test_as_row_keys(self, fresh_table, fresh_workload):
        measurement = measure_index(
            SingleDimensionIndex(), fresh_table, fresh_workload, dataset_name="toy"
        )
        row = measurement.as_row()
        for key in ("index", "dataset", "queries/s", "index size (KiB)", "correct"):
            assert key in row

    def test_precomputed_expected_used(self, fresh_table, fresh_workload):
        expected = expected_answers(fresh_table, fresh_workload)
        measurement = measure_index(
            KdTreeIndex(page_size=512),
            fresh_table,
            fresh_workload,
            expected=expected,
        )
        assert measurement.correct

    def test_incorrect_expected_detected(self, fresh_table, fresh_workload):
        wrong = [-1.0] * len(fresh_workload)
        measurement = measure_index(
            KdTreeIndex(page_size=512), fresh_table, fresh_workload, expected=wrong
        )
        assert not measurement.correct


class TestRunComparison:
    def test_all_factories_measured(self, fresh_table, fresh_workload):
        factories = {
            "single-dim": SingleDimensionIndex,
            "kd-tree": lambda: KdTreeIndex(page_size=512),
        }
        measurements = run_comparison(fresh_table, fresh_workload, factories, dataset_name="toy")
        assert [m.index_name for m in measurements] == ["single-dim", "kd-tree"]
        assert all(m.correct for m in measurements)

    def test_each_index_builds_on_its_own_copy(self, fresh_table, fresh_workload):
        loaded = {name: fresh_table.values(name).copy() for name in fresh_table.column_names}
        factories = {"kd-tree": lambda: KdTreeIndex(page_size=512), "single-dim": SingleDimensionIndex}
        run_comparison(fresh_table, fresh_workload, factories, dataset_name="toy")
        for name, values in loaded.items():
            assert np.array_equal(fresh_table.values(name), values)

    def test_default_factories_cover_paper_suite(self):
        names = set(default_index_factories())
        assert {"single-dim", "z-order", "hyperoctree", "kd-tree", "flood", "tsunami"} == names

    def test_learned_factories(self):
        assert set(learned_index_factories()) == {"flood", "tsunami"}


class TestTunePageSize:
    def test_returns_candidate(self, fresh_table, fresh_workload):
        best = tune_page_size(
            KdTreeIndex, fresh_table, fresh_workload, candidates=(256, 4096)
        )
        assert best in (256, 4096)


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
