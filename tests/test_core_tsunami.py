"""Tests for repro.core.tsunami and repro.core.variants (end-to-end index)."""

import numpy as np
import pytest

from repro.baselines import FloodIndex
from repro.core import tsunami
from repro.core.tsunami import TsunamiConfig, TsunamiIndex, make_tsunami
from repro.core.variants import AugmentedGridOnlyIndex, GridTreeOnlyIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload


FAST = TsunamiConfig(optimizer_iterations=1)


@pytest.fixture(scope="module", autouse=True)
def small_agd_sample():
    """AGD samples 3,000 of the 5,000 rows, keeping builds fast."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tsunami, "OPTIMIZER_SAMPLE_ROWS", 3_000)
        yield


@pytest.fixture(scope="module")
def built(small_table, skewed_workload):
    """A Tsunami index built once for read-only structural assertions."""
    # Build on a private copy: building reorders the table in place.
    table = small_table.subset(np.arange(small_table.num_rows), name="tsunami_copy")
    index = TsunamiIndex(FAST)
    index.build(table, skewed_workload)
    return table, index


class TestTsunamiCorrectness:
    def test_all_workload_queries_correct(self, built, skewed_workload):
        table, index = built
        for query in skewed_workload:
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected

    def test_queries_outside_workload_correct(self, built):
        table, index = built
        rng = np.random.default_rng(0)
        for _ in range(25):
            low_x = int(rng.integers(0, 9_000))
            low_y = int(rng.integers(0, 25_000))
            query = Query.from_ranges(
                {"x": (low_x, low_x + 500), "y": (low_y, low_y + 3_000), "c": (0, 3)}
            )
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected

    def test_empty_result_query(self, built):
        table, index = built
        query = Query.from_ranges({"x": (50_000, 60_000)})
        assert index.execute(query).value == 0

    def test_sum_aggregation(self, built):
        table, index = built
        query = Query.from_ranges({"x": (0, 4_000)}, aggregate="sum", aggregate_column="z")
        expected, _ = execute_full_scan(table, query)
        assert index.execute(query).value == expected

    def test_unfiltered_query_counts_everything(self, built):
        table, index = built
        assert index.execute(Query(predicates=())).value == table.num_rows


class TestTsunamiStructure:
    def test_scans_fewer_points_than_flood(self, small_table, skewed_workload):
        table_a = small_table.subset(np.arange(small_table.num_rows), name="a")
        tsunami = TsunamiIndex(FAST)
        tsunami.build(table_a, skewed_workload)
        _, tsunami_stats = tsunami.execute_workload(skewed_workload)

        table_b = small_table.subset(np.arange(small_table.num_rows), name="b")
        flood = FloodIndex(optimizer_iterations=1)
        flood.build(table_b, skewed_workload)
        _, flood_stats = flood.execute_workload(skewed_workload)

        assert tsunami_stats.points_scanned <= flood_stats.points_scanned

    def test_describe_reports_table4_statistics(self, built):
        _, index = built
        info = index.describe()
        for key in (
            "num_grid_tree_nodes",
            "grid_tree_depth",
            "num_leaf_regions",
            "min_points_per_region",
            "max_points_per_region",
            "avg_functional_mappings_per_region",
            "avg_conditional_cdfs_per_region",
            "total_grid_cells",
        ):
            assert key in info
        assert info["num_leaf_regions"] >= 1
        assert info["total_grid_cells"] >= 1

    def test_index_size_positive(self, built):
        _, index = built
        assert index.index_size_bytes() > 0

    def test_build_report_populated(self, built):
        _, index = built
        assert index.build_report.optimize_seconds > 0
        assert index.build_report.total_seconds > 0

    def test_execute_before_build_raises(self):
        from repro.common.errors import IndexBuildError

        with pytest.raises(IndexBuildError):
            TsunamiIndex().execute(Query.from_ranges({"x": (0, 1)}))

    def test_build_without_workload_still_correct(self, small_table):
        table = small_table.subset(np.arange(small_table.num_rows), name="no_wl")
        index = TsunamiIndex(FAST)
        index.build(table, None)
        query = Query.from_ranges({"x": (100, 3_000)})
        expected, _ = execute_full_scan(table, query)
        assert index.execute(query).value == expected


class TestReoptimization:
    def test_reoptimize_restores_performance(self, small_table):
        table = small_table.subset(np.arange(small_table.num_rows), name="shift")
        rng = np.random.default_rng(5)
        old = Workload(
            [
                Query.from_ranges(
                    {"x": (int(low := rng.integers(8_000, 9_500)), int(low) + 200)}, query_type=0
                )
                for _ in range(40)
            ]
        )
        new = Workload(
            [
                Query.from_ranges(
                    {"z": (int(low := rng.integers(0, 800)), int(low) + 30)}, query_type=0
                )
                for _ in range(40)
            ]
        )
        index = TsunamiIndex(FAST)
        index.build(table, old)
        _, stale_stats = index.execute_workload(new)
        seconds = index.reoptimize(new)
        assert seconds > 0
        _, fresh_stats = index.execute_workload(new)
        # Re-optimizing for the new workload must not scan more than the stale layout.
        assert fresh_stats.points_scanned <= stale_stats.points_scanned
        for query in new:
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected


class TestVariants:
    def test_augmented_grid_only_has_single_region(self, small_table, skewed_workload):
        table = small_table.subset(np.arange(small_table.num_rows), name="ag_only")
        index = AugmentedGridOnlyIndex(FAST)
        index.build(table, skewed_workload)
        assert index.describe()["num_leaf_regions"] == 1
        for query in list(skewed_workload)[:10]:
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected

    def test_grid_tree_only_uses_independent_grids(self, small_table, skewed_workload):
        table = small_table.subset(np.arange(small_table.num_rows), name="gt_only")
        index = GridTreeOnlyIndex(FAST)
        index.build(table, skewed_workload)
        info = index.describe()
        assert info["avg_functional_mappings_per_region"] == 0.0
        assert info["avg_conditional_cdfs_per_region"] == 0.0
        for query in list(skewed_workload)[:10]:
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected

    def test_make_tsunami_helper(self):
        index = make_tsunami(optimizer_iterations=2)
        assert index.config.optimizer_iterations == 2
