"""Tests for insert support via delta buffers (§8 extension, repro.core.delta)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FloodIndex, FullScanIndex, KdTreeIndex
from repro.baselines.base import avg_as_sum
from repro.common.errors import IndexBuildError, QueryError, SchemaError
from repro.core.delta import MIN_BUFFER_CAPACITY, DeltaBuffer, DeltaBufferedIndex
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.scaling import FixedPointScaler
from repro.storage.scan import ScanStats
from repro.storage.table import Table


pytestmark = pytest.mark.usefixtures("small_agd_sample")


def tsunami_factory():
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1))


def new_rows(count: int, seed: int = 21) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        x = int(rng.integers(0, 10_000))
        rows.append({"x": x, "y": 3 * x, "z": int(rng.integers(0, 1_000)), "c": int(rng.integers(0, 8))})
    return rows


def reference_table(index: DeltaBufferedIndex, inserted: list[dict]) -> Table:
    """The table queries should behave as if they ran against (main + inserts)."""
    base = index.base_index.table
    data = {}
    for name in base.column_names:
        extra = np.array([row[name] for row in inserted], dtype=np.int64)
        data[name] = np.concatenate([base.values(name), extra]) if inserted else base.values(name)
    return Table.from_arrays("reference", data)


class TestBuildAndInsert:
    def test_inserts_visible_to_count_queries(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(50)
        index.insert_many(rows)
        assert index.num_pending == 50
        reference = reference_table(index, rows)
        for query in list(fresh_workload)[:15]:
            expected, _ = execute_full_scan(reference, query)
            assert index.execute(query).value == expected

    @pytest.mark.parametrize(
        "aggregate", ["count", "sum", "avg", "min", "max"]
    )
    def test_all_aggregates_combine_correctly(self, fresh_table, fresh_workload, aggregate):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(30, seed=4)
        index.insert_many(rows)
        reference = reference_table(index, rows)
        column = None if aggregate == "count" else "z"
        query = Query.from_ranges(
            {"x": (1_000, 8_000)}, aggregate=aggregate, aggregate_column=column
        )
        expected, _ = execute_full_scan(reference, query)
        assert index.execute(query).value == pytest.approx(expected)

    def test_num_rows_counts_pending(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        base_rows = index.base_index.table.num_rows
        index.insert_many(new_rows(7))
        assert index.num_rows == base_rows + 7

    def test_missing_column_rejected(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        with pytest.raises(SchemaError):
            index.insert({"x": 1, "y": 2})

    def test_unencodable_value_rejected(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        with pytest.raises(SchemaError):
            index.insert({"x": "not-a-number", "y": 0, "z": 0, "c": 0})

    def test_operations_before_build_raise(self):
        index = DeltaBufferedIndex(tsunami_factory)
        with pytest.raises(IndexBuildError):
            index.insert({"x": 1})
        with pytest.raises(IndexBuildError):
            index.execute(Query.from_ranges({"x": (0, 1)}))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            DeltaBufferedIndex(tsunami_factory, merge_threshold=-1)


class TestMerging:
    def test_manual_merge_folds_buffer(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: FloodIndex(optimizer_iterations=1), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(40, seed=9)
        index.insert_many(rows)
        report = index.merge()
        assert report.rows_merged == 40
        assert index.num_pending == 0
        assert index.base_index.table.num_rows == 5_000 + 40
        reference = index.base_index.table
        for query in list(fresh_workload)[:10]:
            expected, _ = execute_full_scan(reference, query)
            assert index.execute(query).value == expected

    def test_merge_on_empty_buffer_is_noop(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        assert index.merge() is None
        assert index.merge_history == []

    def test_threshold_triggers_automatic_merge(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10)
        index.build(fresh_table, fresh_workload)
        index.insert_many(new_rows(25, seed=2))
        assert index.num_pending < 10
        assert len(index.merge_history) >= 2

    def test_queries_correct_across_merge_boundary(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=20)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(45, seed=6)
        index.insert_many(rows)
        # Some rows were merged into the base table, the rest are pending; the
        # reference is therefore the base table plus the still-pending tail.
        pending = index.num_pending
        reference = reference_table(index, rows[len(rows) - pending :])
        query = Query.from_ranges({"x": (0, 10_000)})
        expected, _ = execute_full_scan(reference, query)
        assert index.execute(query).value == expected


class TestDeltaBuffer:
    def test_append_and_views(self):
        buffer = DeltaBuffer(["a", "b"])
        buffer.append_many({"a": [1], "b": [10]})
        buffer.append_many({"a": [2], "b": [20]})
        assert len(buffer) == 2
        assert buffer.table.values("a").tolist() == [1, 2]
        assert buffer.table.values("b").tolist() == [10, 20]

    def test_append_many_is_columnar(self):
        buffer = DeltaBuffer(["a", "b"])
        appended = buffer.append_many({"a": np.arange(5), "b": np.arange(5) * 2})
        assert appended == 5
        assert buffer.table.values("b").tolist() == [0, 2, 4, 6, 8]

    def test_capacity_grows_by_doubling(self):
        buffer = DeltaBuffer(["a"])
        start = buffer.capacity
        buffer.append_many({"a": np.arange(start + 1)})
        assert buffer.capacity == 2 * start
        assert len(buffer) == start + 1
        assert buffer.table.values("a").tolist() == list(range(start + 1))

    def test_clear_resets_size_and_allocation(self):
        buffer = DeltaBuffer(["a"])
        buffer.append_many({"a": np.arange(10 * MIN_BUFFER_CAPACITY)})
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.capacity == MIN_BUFFER_CAPACITY

    def test_append_many_validates_lengths_and_columns(self):
        buffer = DeltaBuffer(["a", "b"])
        with pytest.raises(SchemaError):
            buffer.append_many({"a": np.arange(3)})
        with pytest.raises(SchemaError):
            buffer.append_many({"a": np.arange(3), "b": np.arange(4)})
        with pytest.raises(SchemaError):
            buffer.append_many({"a": np.arange(4).reshape(2, 2), "b": np.arange(4).reshape(2, 2)})
        assert len(buffer) == 0

    def test_table_view_follows_appends(self):
        buffer = DeltaBuffer(["a"])
        buffer.append_many({"a": [4, 9]})
        view = buffer.table
        assert buffer.table is view  # cached until the next append
        assert view.column("a").dtype == np.int64
        assert view.bounds("a") == (4, 9)
        buffer.append_many({"a": [-3]})
        assert buffer.table is not view
        assert buffer.table.bounds("a") == (-3, 9)
        buffer.clear()
        assert buffer.table.num_rows == 0

    def test_unknown_column_rejected(self):
        buffer = DeltaBuffer(["a"])
        buffer.append_many({"a": [1]})
        with pytest.raises(SchemaError):
            buffer.table.column("missing")
        with pytest.raises(SchemaError):
            buffer.scan(Query.from_ranges({"missing": (0, 1)}))
        with pytest.raises(QueryError):
            buffer.scan(Query.from_ranges({"a": (0, 1)}, aggregate="sum", aggregate_column="missing"))

    def test_scan_answers_each_aggregate(self):
        buffer = DeltaBuffer(["x", "v"])
        buffer.append_many({"x": [1, 5, 9], "v": [30, 10, 20]})
        answers = {}
        for aggregate in ("count", "sum", "avg", "min", "max"):
            column = None if aggregate == "count" else "v"
            result = buffer.scan(
                Query.from_ranges({"x": (0, 6)}, aggregate=aggregate, aggregate_column=column)
            )
            answers[aggregate] = result.value
            assert result.stats.points_scanned == 3
            assert result.stats.cell_ranges == 1
            assert result.stats.rows_matched == 2
            assert result.stats.values_scanned == (3 if aggregate == "count" else 6)
            assert result.stats.bytes_scanned == 8 * result.stats.values_scanned
        assert answers == {"count": 2.0, "sum": 40.0, "avg": 20.0, "min": 10.0, "max": 30.0}

    def test_scan_of_empty_buffer_is_free(self):
        buffer = DeltaBuffer(["x", "v"])
        for aggregate in ("count", "sum", "avg", "min", "max"):
            column = None if aggregate == "count" else "v"
            result = buffer.scan(
                Query.from_ranges({"x": (0, 10)}, aggregate=aggregate, aggregate_column=column)
            )
            assert _same_value(result.value, float("nan") if aggregate in ("avg", "min", "max") else 0.0)
            assert result.stats.as_dict() == ScanStats(dims_accessed=1).as_dict()


class TestVectorizedInsertMany:
    def test_insert_many_matches_per_row_loop(self, fresh_table, fresh_workload):
        rows = new_rows(60, seed=13)
        bulk = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=25)
        bulk.build(fresh_table, fresh_workload)
        loop = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=25)
        loop.build(_make_fresh_copy(fresh_table), fresh_workload)

        bulk.insert_many(rows)
        for row in rows:
            loop.insert(row)

        # Identical merge cadence and identical pending tail.
        assert bulk.num_pending == loop.num_pending
        assert len(bulk.merge_history) == len(loop.merge_history)
        for name in fresh_table.column_names:
            assert np.array_equal(bulk.buffer.table.values(name), loop.buffer.table.values(name))
        query = Query.from_ranges({"x": (0, 10_000)})
        assert bulk.execute(query).value == loop.execute(query).value

    def test_insert_many_missing_column_rejected_atomically(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(3)
        del rows[1]["z"]
        with pytest.raises(SchemaError):
            index.insert_many(rows)
        assert index.num_pending == 0  # nothing buffered before the failure

    def test_insert_many_bad_value_rejected_atomically(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(3)
        rows[2]["y"] = "not-a-number"
        with pytest.raises(SchemaError):
            index.insert_many(rows)
        assert index.num_pending == 0

    @pytest.mark.parametrize("column", ["plain", "price"])
    @pytest.mark.parametrize(
        "value",
        [2**70, -(2**70), float("inf"), float("-inf"), float("nan"), 1e30, -1e30],
    )
    def test_unstorable_value_rejected_with_nothing_buffered(self, column, value):
        def mixed_table() -> Table:
            rng = np.random.default_rng(3)
            return Table(
                "mixed",
                [
                    Column("plain", rng.integers(0, 1_000, 400)),
                    Column("price", rng.integers(0, 100_000, 400), scaler=FixedPointScaler(2)),
                ],
            )

        def delta_factory() -> DeltaBufferedIndex:
            return DeltaBufferedIndex(FullScanIndex, merge_threshold=10_000)

        sharded = ShardedIndex(delta_factory, num_shards=2, shard_dimension="plain")
        bad = {"plain": 5, "price": 12.5, column: value}
        for index in (delta_factory().build(mixed_table()), sharded.build(mixed_table())):
            with pytest.raises(SchemaError):
                index.insert(bad)
            with pytest.raises(SchemaError):
                index.insert_many([{"plain": 6, "price": 1.25}, bad])
            assert index.num_pending == 0

    def test_empty_insert_many_is_noop(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        index.insert_many([])
        assert index.num_pending == 0

    def test_zero_threshold_merges_every_insert(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=0)
        index.build(fresh_table, fresh_workload)
        for row in new_rows(3, seed=8):
            index.insert(row)
        assert index.num_pending == 0
        assert len(index.merge_history) == 3
        index.insert_many(new_rows(5, seed=9))
        assert index.num_pending == 0
        assert index.base_index.table.num_rows == 5_000 + 8


def _make_fresh_copy(table: Table) -> Table:
    return Table.from_arrays(
        table.name, {name: np.array(table.values(name)) for name in table.column_names}
    )


class TestServingContract:
    def test_is_built_and_table(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512))
        assert not index.is_built
        with pytest.raises(IndexBuildError):
            index.table
        index.build(fresh_table, fresh_workload)
        assert index.is_built
        assert index.table is index.base_index.table

    def test_query_engine_accepts_delta_index(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(40, seed=3)
        index.insert_many(rows)
        engine = QueryEngine(index=index)  # used to raise AttributeError
        reference = reference_table(index, rows)
        query = fresh_workload[0]
        expected, _ = execute_full_scan(reference, query)
        assert engine.run(query).value == expected
        assert [r.value for r in engine.run_batch([query, query])] == [expected] * 2

    def test_run_batch_differential(self, fresh_table, fresh_workload):
        """Batched == per-query == full scan over table+buffer, bit for bit."""
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(35, seed=17)
        index.insert_many(rows)
        reference = reference_table(index, rows)
        queries = []
        for aggregate in ("count", "sum", "avg", "min", "max"):
            column = None if aggregate == "count" else "z"
            queries.append(
                Query.from_ranges(
                    {"x": (1_000, 8_000)}, aggregate=aggregate, aggregate_column=column
                )
            )
        queries = queries + list(fresh_workload)[:10] + queries  # duplicates too
        engine = QueryEngine(index=index)
        batched = engine.run_batch(queries)
        for query, result in zip(queries, batched):
            single = index.execute(query)
            assert _same_value(result.value, single.value)
            assert result.stats.points_scanned == single.stats.points_scanned
            assert result.stats.cell_ranges == single.stats.cell_ranges
            assert result.stats.rows_matched == single.stats.rows_matched
            assert result.stats.dims_accessed == single.stats.dims_accessed
            expected, _ = execute_full_scan(reference, query)
            assert _same_value(result.value, expected)

    def test_engine_table_tracks_merge(self, fresh_table, fresh_workload):
        """A merge replaces the index's table; the engine must not cache the old one."""
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        engine = QueryEngine(index=index)
        before = engine.table
        index.insert_many(new_rows(25, seed=9))
        index.merge()
        assert engine.table is index.table
        assert engine.table is not before
        assert engine.table.num_rows == before.num_rows + 25

    def test_inserts_visible_between_batches(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        engine = QueryEngine(index=index)
        query = Query.from_ranges({"x": (0, 10_000)})
        before = engine.run_batch([query])[0].value
        index.insert_many(new_rows(12, seed=5))
        after = engine.run_batch([query])[0].value
        assert after == before + 12

    def test_explain_includes_buffer(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        query = Query.from_ranges({"x": (1_000, 2_000)})
        empty_plan = index.explain(query)
        assert empty_plan["pending_inserts"] == 0
        index.insert_many(new_rows(20, seed=2))
        plan = index.explain(query)
        assert plan["pending_inserts"] == 20
        assert plan["rows_to_scan"] == empty_plan["rows_to_scan"] + 20
        assert plan["cell_ranges"] == empty_plan["cell_ranges"] + 1
        assert plan["index"].startswith("delta-buffered(")

    def test_min_max_nan_edges(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        # Outside the data domain: empty buffer AND empty main-side result.
        nothing = Query.from_ranges({"x": (50_000, 60_000)}, aggregate="min", aggregate_column="z")
        assert np.isnan(index.execute(nothing).value)
        assert np.isnan(index.execute_batch([nothing])[0].value)
        # Buffer-only matches: the main side stays empty, the buffer answers.
        index.insert({"x": 55_000, "y": 1, "z": 777, "c": 0})
        assert index.execute(nothing).value == 777.0
        maximum = Query.from_ranges({"x": (50_000, 60_000)}, aggregate="max", aggregate_column="z")
        assert index.execute_batch([maximum])[0].value == 777.0
        # Main-only matches with a pending (non-matching) insert still combine.
        main_only = Query.from_ranges({"x": (0, 10_000)}, aggregate="min", aggregate_column="z")
        expected, _ = execute_full_scan(index.table, main_only)
        assert index.execute(main_only).value == expected

    def test_avg_with_empty_sides(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        nothing = Query.from_ranges({"x": (50_000, 60_000)}, aggregate="avg", aggregate_column="z")
        assert np.isnan(index.execute(nothing).value)
        index.insert({"x": 55_000, "y": 1, "z": 40, "c": 0})
        index.insert({"x": 56_000, "y": 1, "z": 60, "c": 0})
        assert index.execute(nothing).value == pytest.approx(50.0)
        assert index.execute_batch([nothing])[0].value == pytest.approx(50.0)


class TestAvgStatsConservation:
    def test_avg_reports_exactly_the_sum_pass_plus_buffer(self, fresh_table, fresh_workload):
        """The old second count pass is gone and no scan work is dropped.

        ``avg`` now executes a single main-index ``sum`` pass whose
        ``rows_matched`` doubles as the count, so its reported stats must be
        exactly (sum-query stats) + (one buffer scan) — conservation, where
        previously the count pass ran *and* its counters were dropped.
        """
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        index.insert_many(new_rows(25, seed=11))
        pending = index.num_pending
        avg_query = Query.from_ranges({"x": (1_000, 8_000)}, aggregate="avg", aggregate_column="z")
        sum_query = Query.from_ranges({"x": (1_000, 8_000)}, aggregate="sum", aggregate_column="z")

        avg_stats = index.execute(avg_query).stats
        main_sum_stats = index.base_index.execute(sum_query).stats
        buffer_stats = index.buffer.scan(sum_query).stats

        assert avg_stats.points_scanned == main_sum_stats.points_scanned + pending
        assert avg_stats.cell_ranges == main_sum_stats.cell_ranges + buffer_stats.cell_ranges
        assert avg_stats.rows_matched == main_sum_stats.rows_matched + buffer_stats.rows_matched
        assert avg_stats.dims_accessed == main_sum_stats.dims_accessed + buffer_stats.dims_accessed

    def test_avg_value_still_exact(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        rows = new_rows(30, seed=14)
        index.insert_many(rows)
        reference = reference_table(index, rows)
        query = Query.from_ranges({"x": (500, 9_500)}, aggregate="avg", aggregate_column="y")
        expected, _ = execute_full_scan(reference, query)
        assert index.execute(query).value == pytest.approx(expected)


def _same_value(left: float, right: float) -> bool:
    if np.isnan(left) or np.isnan(right):
        return np.isnan(left) and np.isnan(right)
    return left == right


#: Main-table domains: ``x`` is stored as uint8, ``y`` as int16, ``z`` as int32.
NARROW_DOMAINS = {"x": (0, 250), "y": (-1_000, 1_000), "z": (0, 100_000)}


@pytest.fixture(scope="module")
def narrow_delta_index() -> DeltaBufferedIndex:
    rng = np.random.default_rng(12)
    table = Table.from_arrays(
        "narrow",
        {name: rng.integers(low, high + 1, 3_000) for name, (low, high) in NARROW_DOMAINS.items()},
    )
    queries = [
        Query.from_ranges({"x": (low, low + 30), "z": (0, 40_000)}, query_type=0)
        for low in range(0, 220, 20)
    ]
    index = DeltaBufferedIndex(tsunami_factory, merge_threshold=10**9)
    return index.build(table, Workload(queries))


@st.composite
def buffer_cases(draw):
    """Pending rows (possibly none, possibly past the main table's narrow
    dtypes), a query with 0-3 filters and one of the five aggregates."""
    wide = st.integers(-70_000, 70_000)
    rows = draw(
        st.lists(st.fixed_dictionaries({"x": wide, "y": wide, "z": wide}), max_size=40)
    )
    filtered = draw(st.lists(st.sampled_from(sorted(NARROW_DOMAINS)), max_size=3, unique=True))
    ranges = {}
    for dim in filtered:
        low, high = sorted(draw(st.tuples(wide, wide)))
        ranges[dim] = (low, high)
    aggregate = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
    column = None if aggregate == "count" else draw(st.sampled_from(sorted(NARROW_DOMAINS)))
    return rows, Query.from_ranges(ranges, aggregate=aggregate, aggregate_column=column)


class TestBufferCounterContract:
    @settings(max_examples=80, deadline=None)
    @given(buffer_cases())
    def test_execute_batch_is_main_sum_plus_a_scan_of_the_pending_rows(
        self, narrow_delta_index, case
    ):
        """The answer and every ``ScanStats`` field equal the main index's
        result for the ``avg`` -> ``sum`` rewrite combined with a numpy scan
        of the pending rows, which charges ``n`` points, one range when
        ``n > 0``, ``n`` values per filter plus ``n`` when a non-count query
        matches, 8 bytes per value, and one dimension per filter."""
        rows, query = case
        index = narrow_delta_index
        index.buffer.clear()
        index.insert_many(rows)
        assert index.num_pending == len(rows)

        n = len(rows)
        pending = {
            name: np.array([row[name] for row in rows], dtype=np.int64) for name in NARROW_DOMAINS
        }
        mask = np.ones(n, dtype=bool)
        for dim, (low, high) in query.filters().items():
            mask &= (pending[dim] >= low) & (pending[dim] <= high)
        matched = int(mask.sum())
        selected = pending[query.aggregate_column][mask] if query.aggregate_column else None
        reads = n * len(query.filters())
        if query.aggregate != "count" and matched:
            reads += n
        buffer_stats = ScanStats(
            points_scanned=n,
            cell_ranges=1 if n else 0,
            rows_matched=matched,
            dims_accessed=query.num_filtered_dimensions,
            values_scanned=reads,
            bytes_scanned=8 * reads,
        )

        main = index.base_index.execute_batch([avg_as_sum(query)])[0]
        if query.aggregate == "count":
            expected = 0.0 + main.value + matched
        elif query.aggregate == "sum":
            expected = 0.0 + main.value + float(selected.sum())
        elif query.aggregate == "avg":
            total = 0.0 + main.value + float(selected.sum())
            count = main.stats.rows_matched + matched
            expected = total / count if count else float("nan")
        else:
            candidates = [value for value in [main.value] if not np.isnan(value)]
            if matched:
                candidates.append(float(selected.min() if query.aggregate == "min" else selected.max()))
            pick = min if query.aggregate == "min" else max
            expected = pick(candidates) if candidates else float("nan")

        result = index.execute_batch([query])[0]
        assert _same_value(result.value, expected)
        assert result.stats.as_dict() == main.stats.copy().merge(buffer_stats).as_dict()


class TestReporting:
    def test_index_size_includes_buffer(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        before = index.index_size_bytes()
        index.insert_many(new_rows(10))
        assert index.index_size_bytes() == before + 10 * 8 * len(fresh_table.column_names)

    def test_describe_reports_pending_and_merges(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        index.insert_many(new_rows(3))
        info = index.describe()
        assert info["pending_inserts"] == 3
        assert info["num_merges"] == 0
        assert info["base_index"]["name"] == "kd-tree"

    def test_execute_workload_accumulates_buffer_scans(self, fresh_table, fresh_workload):
        index = DeltaBufferedIndex(lambda: KdTreeIndex(page_size=512), merge_threshold=10_000)
        index.build(fresh_table, fresh_workload)
        index.insert_many(new_rows(20))
        results, total = index.execute_workload(fresh_workload)
        assert len(results) == len(fresh_workload)
        assert total.points_scanned >= 20 * len(fresh_workload)
