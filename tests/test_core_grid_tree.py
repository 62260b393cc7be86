"""Tests for repro.core.grid_tree."""

import numpy as np
import pytest

from repro.common.errors import IndexBuildError
from repro.core import grid_tree
from repro.core.grid_tree import GridTree, GridTreeConfig
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


def sales_table(num_rows: int = 10_000, seed: int = 0) -> Table:
    """The running example of Fig. 2: uniform points over (year, sales)."""
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        "sales",
        {
            "year": rng.integers(0, 1000, num_rows),  # scaled 2016..2020
            "sales": rng.integers(0, 10_000, num_rows),
        },
    )


def fig2_workload(seed: int = 1) -> Workload:
    """Qr filters broad year spans uniformly; Qg filters narrow spans over recent years."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(50):
        low = int(rng.integers(0, 750))
        queries.append(Query.from_ranges({"year": (low, low + 250)}, query_type=0))
    for _ in range(50):
        low = int(rng.integers(750, 980))
        queries.append(Query.from_ranges({"year": (low, low + 20)}, query_type=1))
    return Workload(queries, name="fig2")


class TestGridTreeConstruction:
    def test_splits_on_skewed_dimension(self):
        table = sales_table()
        tree = GridTree().fit(table, fig2_workload())
        assert tree.root is not None
        assert not tree.root.is_leaf
        assert tree.root.split_dimension == "year"

    def test_split_value_near_skew_boundary(self):
        # The narrow queries concentrate above year=750, so a split near there
        # should appear among the root's split values.
        table = sales_table()
        tree = GridTree().fit(table, fig2_workload())
        assert any(600 <= value <= 900 for value in tree.root.split_values)

    def test_zero_skew_workload_yields_single_region(self):
        # Every query covers the whole year domain, so the query PDF over year
        # is exactly uniform and no split can reduce skew.
        table = sales_table(seed=2)
        rng = np.random.default_rng(3)
        queries = []
        for _ in range(60):
            low = int(rng.integers(0, 9_000))
            queries.append(
                Query.from_ranges({"year": (0, 999), "sales": (low, low + 800)}, query_type=0)
            )
        tree = GridTree().fit(table, Workload(queries))
        assert tree.root.split_dimension != "year"

    def test_skewed_workload_yields_more_regions_than_broad_uniform(self):
        table_skewed = sales_table(seed=2)
        skewed_tree = GridTree().fit(table_skewed, fig2_workload(seed=30))
        table_uniform = sales_table(seed=2)
        rng = np.random.default_rng(3)
        broad = [
            Query.from_ranges({"year": (0, 999)}, query_type=0) for _ in range(60)
        ]
        uniform_tree = GridTree().fit(table_uniform, Workload(broad))
        assert uniform_tree.num_regions <= skewed_tree.num_regions

    def test_empty_table_rejected(self):
        empty = Table.from_arrays("e", {"a": np.array([], dtype=np.int64)})
        with pytest.raises(IndexBuildError):
            GridTree().fit(empty, fig2_workload())

    def test_region_count_bounded(self):
        # max_regions is a soft cap: branches already open when it binds may
        # each still contribute one leaf, so the guaranteed bound is
        # max_regions plus one leaf per open ancestor level/sibling.
        table = sales_table(seed=4)
        config = GridTreeConfig(max_regions=10)
        tree = GridTree(config).fit(table, fig2_workload(seed=5))
        assert tree.num_regions <= config.max_regions + grid_tree.MAX_DEPTH * grid_tree.MAX_CHILDREN

    def test_max_depth_respected(self, monkeypatch):
        monkeypatch.setattr(grid_tree, "MAX_DEPTH", 1)
        table = sales_table(seed=6)
        tree = GridTree().fit(table, fig2_workload(seed=7))
        assert tree.depth <= 1

    def test_max_children_respected(self, monkeypatch):
        monkeypatch.setattr(grid_tree, "MAX_CHILDREN", 3)
        table = sales_table(seed=8)
        tree = GridTree().fit(table, fig2_workload(seed=9))

        def check(node):
            assert len(node.children) <= 3
            for child in node.children:
                check(child)

        check(tree.root)

    def test_no_workload_queries_single_region(self):
        table = sales_table(seed=10)
        tree = GridTree().fit(table, Workload([]))
        assert tree.num_regions == 1


class TestRegionAssignment:
    def test_every_row_assigned_exactly_once(self):
        table = sales_table(seed=11)
        tree = GridTree().fit(table, fig2_workload(seed=12))
        regions = tree.assign_regions(table)
        assert regions.shape == (table.num_rows,)
        assert regions.min() >= 0
        assert regions.max() < tree.num_regions

    def test_region_sizes_match_leaf_counts(self):
        table = sales_table(seed=13)
        tree = GridTree().fit(table, fig2_workload(seed=14))
        regions = tree.assign_regions(table)
        counts = np.bincount(regions, minlength=tree.num_regions)
        for leaf in tree.leaves:
            assert counts[leaf.region_id] == leaf.num_points

    def test_rows_fall_inside_their_region_bounds(self):
        table = sales_table(seed=15)
        tree = GridTree().fit(table, fig2_workload(seed=16))
        regions = tree.assign_regions(table)
        for leaf in tree.leaves:
            rows = np.flatnonzero(regions == leaf.region_id)
            if len(rows) == 0:
                continue
            for dim, (low, high) in leaf.bounds.items():
                values = table.values(dim)[rows]
                assert values.min() >= low and values.max() < high


class TestRegionsForQuery:
    def test_covering_query_touches_all_regions(self):
        table = sales_table(seed=17)
        tree = GridTree().fit(table, fig2_workload(seed=18))
        everything = Query.from_ranges({"year": (0, 1000), "sales": (0, 10_000)})
        assert len(tree.regions_for_queries([everything])[0]) == tree.num_regions

    def test_narrow_query_touches_few_regions(self):
        table = sales_table(seed=19)
        tree = GridTree().fit(table, fig2_workload(seed=20))
        narrow = Query.from_ranges({"year": (990, 995)})
        assert len(tree.regions_for_queries([narrow])[0]) < tree.num_regions

    def test_returned_regions_actually_intersect(self):
        table = sales_table(seed=21)
        tree = GridTree().fit(table, fig2_workload(seed=22))
        query = Query.from_ranges({"year": (800, 900)})
        for node in tree.regions_for_queries([query])[0]:
            low, high = node.bounds["year"]
            assert 800 < high and 900 >= low

    def test_all_matching_rows_covered_by_returned_regions(self):
        table = sales_table(seed=23)
        tree = GridTree().fit(table, fig2_workload(seed=24))
        regions = tree.assign_regions(table)
        query = Query.from_ranges({"year": (100, 400), "sales": (0, 2_000)})
        matching = (
            (table.values("year") >= 100)
            & (table.values("year") <= 400)
            & (table.values("sales") <= 2_000)
        )
        touched = {node.region_id for node in tree.regions_for_queries([query])[0]}
        assert set(np.unique(regions[matching])).issubset(touched)


class TestReporting:
    def test_describe_fields(self):
        table = sales_table(seed=25)
        tree = GridTree().fit(table, fig2_workload(seed=26))
        info = tree.describe()
        assert info["num_regions"] == tree.num_regions
        assert info["num_nodes"] >= info["num_regions"]
        assert info["min_points_per_region"] <= info["max_points_per_region"]

    def test_size_bytes_positive(self):
        table = sales_table(seed=27)
        tree = GridTree().fit(table, fig2_workload(seed=28))
        assert tree.size_bytes() > 0

    def test_unfitted_tree_raises(self):
        with pytest.raises(IndexBuildError):
            GridTree().describe()
