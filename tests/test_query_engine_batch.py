"""Tests for the batched execution pipeline and the QueryEngine entry point.

Batch execution must be a pure optimization: identical answers and identical
per-query work counters, in input order, for any batch size — with the plan
cache warming on repeats and invalidating when the layout is re-organized.
"""

import numpy as np
import pytest
from reference_router import regions_for_query

from repro.baselines import FloodIndex, FullScanIndex
from repro.common.errors import QueryError
from repro.core.query_types import PlanCache
from repro.core.tsunami import PLAN_CACHE_ENTRIES, TsunamiConfig, make_tsunami
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


def make_table(num_rows: int = 4000, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, num_rows)
    y = x * 2 + rng.integers(-40, 41, num_rows)
    z = rng.integers(0, 500, num_rows)
    return Table.from_arrays("batch", {"x": x, "y": y, "z": z})


def make_workload(num_queries: int = 30, seed: int = 1) -> Workload:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
        low = int(rng.integers(0, 9_000))
        queries.append(
            Query.from_ranges(
                {"x": (low, low + 800), "z": (0, int(rng.integers(50, 400)))}
            )
        )
    return Workload(queries, name="batch")


@pytest.fixture()
def built_tsunami():
    table = make_table()
    workload = make_workload()
    index = make_tsunami(optimizer_iterations=2)
    index.build(table, workload)
    return table, workload, index


class TestExecuteBatchOrdering:
    def test_batch_matches_single_in_order(self, built_tsunami):
        _, workload, index = built_tsunami
        queries = list(workload)
        single = [index.execute(query) for query in queries]
        batched = index.execute_batch(queries)
        assert len(batched) == len(single)
        for one, many in zip(single, batched):
            assert one.value == many.value
            assert one.stats.points_scanned == many.stats.points_scanned
            assert one.stats.cell_ranges == many.stats.cell_ranges
            assert one.stats.rows_matched == many.stats.rows_matched

    def test_batch_with_duplicates_preserves_positions(self, built_tsunami):
        _, workload, index = built_tsunami
        queries = [workload[0], workload[1], workload[0], workload[2], workload[0]]
        batched = index.execute_batch(queries)
        assert batched[0].value == batched[2].value == batched[4].value
        assert batched[1].value == index.execute(workload[1]).value

    def test_empty_batch(self, built_tsunami):
        _, _, index = built_tsunami
        assert index.execute_batch([]) == []

    def test_baseline_index_inherits_batch_path(self):
        table = make_table(seed=5)
        workload = make_workload(seed=6)
        index = FloodIndex()
        index.build(table, workload)
        queries = list(workload)[:10]
        single = [index.execute(query).value for query in queries]
        batched = [result.value for result in index.execute_batch(queries)]
        assert batched == single


class TestQueryEngine:
    def test_requires_index_or_table(self):
        with pytest.raises(TypeError):
            QueryEngine()

    def test_rejects_unbuilt_index(self):
        with pytest.raises(QueryError):
            QueryEngine(index=make_tsunami())

    def test_full_scan_fallback(self):
        table = make_table(seed=7)
        engine = QueryEngine(FullScanIndex().build(table))
        query = Query.from_ranges({"x": (0, 4_000)})
        expected, _ = execute_full_scan(table, query)
        assert engine.run(query).value == expected
        assert [r.value for r in engine.run_batch([query, query])] == [expected] * 2

    def test_run_batch_chunks_match_single(self, built_tsunami):
        _, workload, index = built_tsunami
        engine = QueryEngine(index=index)
        queries = list(workload)
        expected = [engine.run(query).value for query in queries]
        for size in (1, 7, len(queries)):
            values = [
                result.value
                for start in range(0, len(queries), size)
                for result in engine.run_batch(queries[start : start + size])
            ]
            assert values == expected

    def test_full_scan_fallback_reuses_one_executor(self, monkeypatch):
        # A full-scan engine must not construct a ScanExecutor per run()
        # call: the index allocates exactly one, at build time.
        import repro.baselines.base as base_module

        constructed = []
        real_executor = base_module.ScanExecutor

        class CountingExecutor(real_executor):
            def __init__(self, table):
                constructed.append(table)
                super().__init__(table)

        monkeypatch.setattr(base_module, "ScanExecutor", CountingExecutor)
        table = make_table(seed=7)
        engine = QueryEngine(FullScanIndex().build(table))
        queries = [Query.from_ranges({"x": (0, i * 500)}) for i in range(1, 6)]
        for query in queries:
            engine.run(query)
        engine.run_batch(queries)
        assert len(constructed) == 1


class TestPlanCacheLifecycle:
    def test_repeated_queries_hit_cache(self, built_tsunami):
        _, workload, index = built_tsunami
        queries = list(workload)
        index.execute_batch(queries)
        before = index.plan_cache_stats()
        index.execute_batch(queries)
        after = index.plan_cache_stats()
        assert after.hits > before.hits
        assert after.misses == before.misses  # second pass plans nothing anew

    def test_reoptimize_invalidates_cache(self, built_tsunami):
        _, workload, index = built_tsunami
        queries = list(workload)
        index.execute_batch(queries)
        assert index.plan_cache_entries() > 0
        index.reoptimize(workload)
        stats = index.plan_cache_stats()
        assert index.plan_cache_entries() == 0
        assert stats.hits == 0 and stats.misses == 0
        # Correctness after invalidation: answers still match full scans.
        table = index.table
        for query in queries[:5]:
            expected, _ = execute_full_scan(table, query)
            assert index.execute(query).value == expected


    def test_every_region_grid_caches_plans(self, built_tsunami):
        _, _, index = built_tsunami
        grids = [region.grid for region in index._regions if region.grid is not None]
        assert grids
        for grid in grids:
            assert isinstance(grid.plan_cache, PlanCache)
            assert grid.plan_cache.max_entries == PLAN_CACHE_ENTRIES

    def test_plan_cache_cannot_be_configured_away(self):
        """The cache is always on: a config naming its removed size knob
        fails instead of being ignored."""
        with pytest.raises(TypeError):
            TsunamiConfig(plan_cache_entries=0)


class TestGridTreeBatchRouting:
    def test_regions_for_queries_matches_per_query(self, built_tsunami):
        _, workload, index = built_tsunami
        if index.grid_tree is None:
            pytest.skip("workload produced no grid tree")
        queries = list(workload)
        routed = index.grid_tree.regions_for_queries(queries)
        for query, nodes in zip(queries, routed):
            expected = regions_for_query(index.grid_tree, query)
            assert [n.region_id for n in nodes] == [n.region_id for n in expected]


class TestEngineWriteAndClose:
    def test_insert_many_forwards_to_updatable_index(self):
        from repro.core.delta import DeltaBufferedIndex

        table = make_table()
        workload = make_workload()
        index = DeltaBufferedIndex(
            lambda: make_tsunami(optimizer_iterations=1), merge_threshold=100_000
        )
        index.build(table, workload)
        engine = QueryEngine(index)
        probe = Query.from_ranges({"x": (500, 520)})
        before = engine.run(probe).value
        engine.insert({"x": 510, "y": 1020, "z": 3})
        engine.insert_many([{"x": 505, "y": 1010, "z": 4}] * 2)
        assert engine.run(probe).value == before + 3

    def test_insert_rejected_for_read_only_index(self, built_tsunami):
        _, _, index = built_tsunami
        with pytest.raises(QueryError):
            QueryEngine(index).insert_many([{"x": 1, "y": 2, "z": 3}])

    def test_insert_rejected_for_full_scan_fallback(self):
        engine = QueryEngine(FullScanIndex().build(make_table(num_rows=100)))
        with pytest.raises(QueryError):
            engine.insert({"x": 1, "y": 2, "z": 3})

    def test_close_reaches_index_and_is_context_managed(self, built_tsunami):
        _, workload, index = built_tsunami
        closes = []
        index.close = lambda: closes.append(True)  # duck-typed hook
        try:
            with QueryEngine(index) as engine:
                engine.run(list(workload)[0])
            assert closes == [True]
        finally:
            del index.close

    def test_close_without_index_close_is_a_noop(self, built_tsunami):
        _, _, index = built_tsunami
        QueryEngine(index).close()  # TsunamiIndex has no close; must not raise
        QueryEngine(FullScanIndex().build(make_table(num_rows=50))).close()
