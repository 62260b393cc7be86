"""Tests for the baseline indexes (§6.1): correctness and per-index behaviour."""

import time

import numpy as np
import pytest

from repro.baselines import (
    FloodIndex,
    FullScanIndex,
    HyperOctreeIndex,
    KdTreeIndex,
    SingleDimensionIndex,
    ZOrderIndex,
    flood,
    octree,
)
from repro.baselines.base import BuildReport, containment_exactness
from repro.common.errors import IndexBuildError
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table

INDEX_FACTORIES = {
    "full-scan": FullScanIndex,
    "single-dim": SingleDimensionIndex,
    "z-order": lambda: ZOrderIndex(page_size=256),
    "kd-tree": lambda: KdTreeIndex(page_size=512),
    "hyperoctree": lambda: HyperOctreeIndex(page_size=512),
    "flood": lambda: FloodIndex(optimizer_iterations=1),
}


@pytest.fixture(autouse=True)
def small_gd_sample(monkeypatch):
    """Flood's GD samples 3,000 of the 5,000 rows, keeping builds fast."""
    monkeypatch.setattr(flood, "SAMPLE_ROWS", 3_000)


def extra_queries(seed: int = 0) -> list[Query]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(20):
        low_x = int(rng.integers(0, 9_000))
        low_y = int(rng.integers(0, 25_000))
        queries.append(
            Query.from_ranges({"x": (low_x, low_x + 700), "y": (low_y, low_y + 4_000)})
        )
    queries.append(Query.from_ranges({"c": (2, 2)}))
    queries.append(Query.from_ranges({"x": (0, 10_000), "z": (0, 0)}))
    queries.append(Query.from_ranges({"x": (90_000, 99_000)}))  # empty
    queries.append(Query(predicates=()))  # unfiltered
    return queries


class TestCorrectnessAgainstFullScan:
    @pytest.mark.parametrize("name", list(INDEX_FACTORIES))
    def test_workload_and_extra_queries(self, name, fresh_table, fresh_workload):
        index = INDEX_FACTORIES[name]()
        index.build(fresh_table, fresh_workload)
        for query in list(fresh_workload) + extra_queries():
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == expected, f"{name} wrong on {query}"

    @pytest.mark.parametrize("name", list(INDEX_FACTORIES))
    def test_sum_aggregation(self, name, fresh_table, fresh_workload):
        index = INDEX_FACTORIES[name]()
        index.build(fresh_table, fresh_workload)
        query = Query.from_ranges({"x": (0, 5_000)}, aggregate="sum", aggregate_column="z")
        expected, _ = execute_full_scan(fresh_table, query)
        assert index.execute(query).value == expected

    @pytest.mark.parametrize("name", list(INDEX_FACTORIES))
    def test_build_without_workload(self, name, fresh_table):
        index = INDEX_FACTORIES[name]()
        index.build(fresh_table, None)
        query = Query.from_ranges({"x": (1_000, 2_000)})
        expected, _ = execute_full_scan(fresh_table, query)
        assert index.execute(query).value == expected


class TestCommonContract:
    def test_empty_table_rejected(self):
        empty = Table.from_arrays("e", {"x": np.array([], dtype=np.int64)})
        with pytest.raises(IndexBuildError):
            KdTreeIndex().build(empty, None)

    def test_execute_before_build_raises(self):
        with pytest.raises(IndexBuildError):
            ZOrderIndex().execute(Query.from_ranges({"x": (0, 1)}))

    def test_execute_workload_accumulates_stats(self, fresh_table, fresh_workload):
        index = KdTreeIndex(page_size=512)
        index.build(fresh_table, fresh_workload)
        results, total = index.execute_workload(fresh_workload)
        assert len(results) == len(fresh_workload)
        assert total.points_scanned == sum(r.stats.points_scanned for r in results)

    def test_build_report_timings(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(flood, "SAMPLE_ROWS", 2_000)
        index = FloodIndex(optimizer_iterations=1)
        index.build(fresh_table, fresh_workload)
        report = index.build_report
        assert isinstance(report, BuildReport)
        assert report.optimize_seconds > 0
        assert report.total_seconds >= report.sort_seconds

    def test_sort_seconds_cover_layout_permutation(self, fresh_table):
        """Computing the layout (a grid fit, a tree build) is sort time, not untimed."""

        class SlowLayoutIndex(FullScanIndex):
            def _layout_permutation(self, table):
                time.sleep(0.05)
                return super()._layout_permutation(table)

        index = SlowLayoutIndex().build(fresh_table, None)
        assert index.build_report.sort_seconds >= 0.05

    def test_describe_contains_name_and_size(self, fresh_table, fresh_workload):
        index = ZOrderIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        info = index.describe()
        assert info["name"] == "z-order"
        assert info["size_bytes"] == index.index_size_bytes()


class TestContainmentExactness:
    def test_contained_cell_is_exact(self):
        query = Query.from_ranges({"x": (0, 100)})
        assert containment_exactness({"x": (10, 90)}, query)

    def test_straddling_cell_is_not_exact(self):
        query = Query.from_ranges({"x": (0, 100)})
        assert not containment_exactness({"x": (50, 150)}, query)

    def test_unbounded_dimension_blocks_exactness(self):
        query = Query.from_ranges({"x": (0, 100), "y": (0, 10)})
        assert not containment_exactness({"x": (10, 90)}, query)


class TestSingleDimensionIndex:
    def test_picks_most_selective_dimension(self, fresh_table, fresh_workload):
        index = SingleDimensionIndex()
        index.build(fresh_table, fresh_workload)
        assert index.sort_dimension in fresh_table.column_names

    def test_explicit_dimension_respected(self, fresh_table, fresh_workload):
        index = SingleDimensionIndex(sort_dimension="z")
        index.build(fresh_table, fresh_workload)
        assert index.sort_dimension == "z"
        values = fresh_table.values("z")
        assert np.all(values[:-1] <= values[1:])

    def test_unknown_dimension_rejected(self, fresh_table):
        with pytest.raises(IndexBuildError):
            SingleDimensionIndex(sort_dimension="missing").build(fresh_table, None)

    def test_query_on_sort_dimension_scans_subset(self, fresh_table, fresh_workload):
        index = SingleDimensionIndex(sort_dimension="x")
        index.build(fresh_table, fresh_workload)
        result = index.execute(Query.from_ranges({"x": (0, 500)}))
        assert result.stats.points_scanned < fresh_table.num_rows / 4

    def test_query_off_sort_dimension_full_scans(self, fresh_table, fresh_workload):
        index = SingleDimensionIndex(sort_dimension="x")
        index.build(fresh_table, fresh_workload)
        result = index.execute(Query.from_ranges({"z": (0, 10)}))
        assert result.stats.points_scanned == fresh_table.num_rows


class TestZOrderIndex:
    def test_page_metadata_prunes(self, fresh_table, fresh_workload):
        index = ZOrderIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        result = index.execute(Query.from_ranges({"x": (0, 300), "y": (0, 1_000)}))
        assert result.stats.points_scanned < fresh_table.num_rows

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            ZOrderIndex(page_size=0)

    def test_unknown_dimension_rejected(self, fresh_table):
        with pytest.raises(IndexBuildError):
            ZOrderIndex(dimensions=["missing"]).build(fresh_table, None)

    def test_describe_page_count(self, fresh_table, fresh_workload):
        index = ZOrderIndex(page_size=500)
        index.build(fresh_table, fresh_workload)
        info = index.describe()
        assert info["num_pages"] == int(np.ceil(fresh_table.num_rows / 500))


class TestKdTreeIndex:
    def test_leaf_sizes_respect_page_size(self, fresh_table, fresh_workload):
        index = KdTreeIndex(page_size=400)
        index.build(fresh_table, fresh_workload)
        info = index.describe()
        assert info["num_leaves"] >= fresh_table.num_rows / 400 / 2

    def test_narrow_query_prunes(self, fresh_table, fresh_workload):
        index = KdTreeIndex(page_size=150)
        index.build(fresh_table, fresh_workload)
        result = index.execute(Query.from_ranges({"x": (100, 400)}))
        assert result.stats.points_scanned < fresh_table.num_rows / 2

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            KdTreeIndex(page_size=0)


class TestHyperOctreeIndex:
    def test_constant_column_does_not_recurse_forever(self):
        rng = np.random.default_rng(9)
        table = Table.from_arrays(
            "const", {"a": np.full(5_000, 7), "b": rng.integers(0, 100, 5_000)}
        )
        index = HyperOctreeIndex(page_size=128)
        index.build(table, None)
        query = Query.from_ranges({"b": (0, 10)})
        expected, _ = execute_full_scan(table, query)
        assert index.execute(query).value == expected

    def test_split_dimension_rotation(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(octree, "MAX_SPLIT_DIMENSIONS", 2)
        index = HyperOctreeIndex(page_size=256)
        index.build(fresh_table, fresh_workload)
        for query in list(fresh_workload)[:5]:
            expected, _ = execute_full_scan(fresh_table, query)
            assert index.execute(query).value == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HyperOctreeIndex(page_size=0)


class TestFloodIndex:
    def test_uses_all_independent_skeleton(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(flood, "SAMPLE_ROWS", 2_000)
        index = FloodIndex(optimizer_iterations=1)
        index.build(fresh_table, fresh_workload)
        assert index.grid is not None
        assert index.grid.skeleton.num_functional_mappings == 0
        assert index.grid.skeleton.num_conditional_cdfs == 0

    def test_workload_tunes_partitions_towards_filtered_dims(self, fresh_table):
        rng = np.random.default_rng(11)
        only_x = Workload(
            [
                Query.from_ranges({"x": (int(low := rng.integers(0, 9_000)), int(low) + 200)})
                for _ in range(40)
            ]
        )
        index = FloodIndex(optimizer_iterations=2)
        index.build(fresh_table, only_x)
        partitions = index.grid.config.partitions
        assert partitions["x"] >= max(partitions["z"], partitions["c"])

    def test_num_cells_reported(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(flood, "SAMPLE_ROWS", 2_000)
        index = FloodIndex(optimizer_iterations=1)
        index.build(fresh_table, fresh_workload)
        assert index.num_cells == index.grid.num_cells
        assert index.describe()["num_cells"] == index.num_cells
