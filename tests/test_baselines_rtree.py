"""Tests for the STR bulk-loaded R-tree baseline (repro.baselines.rtree)."""

import numpy as np
import pytest

from repro.baselines import rtree
from repro.baselines.rtree import RTreeIndex
from repro.common.errors import IndexBuildError
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.storage.table import Table


def extra_queries(seed: int = 1) -> list[Query]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(15):
        low_x = int(rng.integers(0, 9_000))
        low_z = int(rng.integers(0, 900))
        queries.append(
            Query.from_ranges({"x": (low_x, low_x + 500), "z": (low_z, low_z + 80)})
        )
    queries.append(Query.from_ranges({"y": (0, 5_000)}))
    queries.append(Query.from_ranges({"x": (50_000, 60_000)}))  # empty result
    queries.append(Query(predicates=()))  # unfiltered
    return queries


class TestCorrectness:
    def test_workload_and_extra_queries(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        for query in list(fresh_workload) + extra_queries():
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == expected

    def test_aggregations(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=256).build(fresh_table, fresh_workload)
        for aggregate in ("sum", "min", "max"):
            query = Query.from_ranges(
                {"x": (500, 7_500)}, aggregate=aggregate, aggregate_column="y"
            )
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == pytest.approx(expected)

    def test_build_without_workload(self, fresh_table):
        index = RTreeIndex(page_size=512).build(fresh_table, None)
        query = Query.from_ranges({"x": (2_000, 3_000)})
        expected, _ = execute_full_scan(fresh_table, query)
        assert index.execute(query).value == expected

    def test_filter_on_unindexed_dimension_still_correct(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(rtree, "MAX_INDEXED_DIMENSIONS", 1)
        index = RTreeIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        query = Query.from_ranges({"c": (0, 2), "x": (0, 4_000)})
        expected, _ = execute_full_scan(fresh_table, query)
        assert index.execute(query).value == expected


class TestStructure:
    def test_leaves_respect_page_size(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=200).build(fresh_table, fresh_workload)
        assert index._num_leaves >= fresh_table.num_rows / 200

    def test_height_grows_with_smaller_fanout(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(rtree, "FANOUT", 64)
        wide = RTreeIndex(page_size=128).build(fresh_table, fresh_workload)
        monkeypatch.setattr(rtree, "FANOUT", 2)
        narrow = RTreeIndex(page_size=128).build(fresh_table, fresh_workload)
        assert narrow.height >= wide.height

    def test_pruning_reduces_scanned_points(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=128).build(fresh_table, fresh_workload)
        narrow = Query.from_ranges({"x": (100, 400)})
        result = index.execute(narrow)
        assert result.stats.points_scanned < fresh_table.num_rows

    def test_selective_dimensions_come_first(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=256).build(fresh_table, fresh_workload)
        assert set(index.dimensions) <= set(fresh_table.column_names)
        assert len(index.dimensions) <= rtree.MAX_INDEXED_DIMENSIONS

    def test_describe_and_size(self, fresh_table, fresh_workload):
        index = RTreeIndex(page_size=256).build(fresh_table, fresh_workload)
        info = index.describe()
        assert info["name"] == "r-tree"
        assert info["num_leaves"] == index._num_leaves
        assert info["height"] == index.height
        assert index.index_size_bytes() > 0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"page_size": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RTreeIndex(**kwargs)

    def test_empty_requested_dimensions_rejected(self, fresh_table):
        with pytest.raises(IndexBuildError):
            RTreeIndex(dimensions=[]).build(fresh_table, None)

    def test_empty_table_rejected(self):
        empty = Table.from_arrays("e", {"x": np.array([], dtype=np.int64)})
        with pytest.raises(IndexBuildError):
            RTreeIndex().build(empty, None)

    def test_query_before_build_raises(self):
        with pytest.raises(IndexBuildError):
            RTreeIndex().execute(Query.from_ranges({"x": (0, 1)}))
