"""Tests for the Grid File baseline (repro.baselines.gridfile)."""

import numpy as np
import pytest

from repro.baselines import gridfile
from repro.baselines.gridfile import GridFileIndex
from repro.common.errors import IndexBuildError
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


def extra_queries(seed: int = 0) -> list[Query]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(15):
        low_x = int(rng.integers(0, 9_000))
        low_y = int(rng.integers(0, 25_000))
        queries.append(
            Query.from_ranges({"x": (low_x, low_x + 700), "y": (low_y, low_y + 4_000)})
        )
    queries.append(Query.from_ranges({"c": (3, 3)}))
    queries.append(Query.from_ranges({"x": (50_000, 60_000)}))  # empty result
    queries.append(Query(predicates=()))  # unfiltered
    return queries


class TestCorrectness:
    def test_workload_and_extra_queries(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        for query in list(fresh_workload) + extra_queries():
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == expected

    def test_sum_and_avg_aggregations(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        for aggregate in ("sum", "avg"):
            query = Query.from_ranges(
                {"x": (0, 6_000)}, aggregate=aggregate, aggregate_column="z"
            )
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == pytest.approx(expected)

    def test_build_without_workload_indexes_all_dimensions(self, fresh_table):
        index = GridFileIndex(page_size=256)
        index.build(fresh_table, None)
        assert set(index.dimensions) <= set(fresh_table.column_names)
        query = Query.from_ranges({"x": (1_000, 2_000)})
        expected, _ = execute_full_scan(fresh_table, query)
        assert index.execute(query).value == expected


class TestStructure:
    def test_smaller_pages_give_more_cells(self, fresh_table, fresh_workload):
        coarse = GridFileIndex(page_size=2_048).build(fresh_table, fresh_workload)
        fine = GridFileIndex(page_size=128).build(fresh_table, fresh_workload)
        assert fine.num_cells > coarse.num_cells

    def test_cell_budget_respected(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(gridfile, "MAX_CELLS", 500)
        index = GridFileIndex(page_size=1)
        index.build(fresh_table, fresh_workload)
        assert index.num_cells <= 500

    def test_only_filtered_dimensions_are_indexed(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        assert set(index.dimensions) <= set(fresh_workload.filtered_dimensions())

    def test_max_indexed_dimensions_cap(self, fresh_table, monkeypatch):
        monkeypatch.setattr(gridfile, "MAX_INDEXED_DIMENSIONS", 2)
        index = GridFileIndex(page_size=256)
        index.build(fresh_table, None)
        assert len(index.dimensions) == 2

    def test_requested_dimensions_override(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256, dimensions=["z"])
        index.build(fresh_table, fresh_workload)
        assert index.dimensions == ["z"]

    def test_scanned_points_bounded_by_table(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256).build(fresh_table, fresh_workload)
        _, stats = index.execute_workload(fresh_workload)
        assert stats.points_scanned <= fresh_table.num_rows * len(fresh_workload)

    def test_describe_and_size(self, fresh_table, fresh_workload):
        index = GridFileIndex(page_size=256).build(fresh_table, fresh_workload)
        info = index.describe()
        assert info["name"] == "grid-file"
        assert info["num_cells"] == index.num_cells
        assert index.index_size_bytes() >= index.num_cells * 8


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"page_size": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridFileIndex(**kwargs)

    def test_empty_dimension_list_rejected(self, fresh_table):
        with pytest.raises(IndexBuildError):
            GridFileIndex(dimensions=[]).build(fresh_table, None)

    def test_empty_table_rejected(self):
        empty = Table.from_arrays("e", {"x": np.array([], dtype=np.int64)})
        with pytest.raises(IndexBuildError):
            GridFileIndex().build(empty, Workload([]))
