"""Differential and concurrency tests for the serving front-end.

The front-end is the first component whose correctness is
concurrency-dependent, so the core assertions here are differential:
concurrent, cached, micro-batched serving must be bit-identical to
sequential uncached execution — including across the cache invalidations a
merge, a lifecycle reoptimization, or a sharded-index merge triggers.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.baselines.base import QueryResult
from repro.common.errors import (
    QueryError,
    SchemaError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.core import lifecycle
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleManager
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.serve import ServingConfig, ServingFrontend
from repro.storage.table import Table


pytestmark = pytest.mark.usefixtures("small_agd_sample")


def tsunami_factory():
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1))


def small_config(**overrides) -> ServingConfig:
    defaults = dict(max_batch_size=16, max_queue_depth=512)
    defaults.update(overrides)
    return ServingConfig(**defaults)


def zipf_stream(queries: list[Query], count: int, seed: int = 5) -> list[Query]:
    """A bursty stream repeating ``queries`` with zipf-skewed frequencies."""
    rng = np.random.default_rng(seed)
    draws = rng.zipf(1.3, size=count) - 1
    return [queries[int(d) % len(queries)] for d in draws]


def serve_concurrently(
    frontend: ServingFrontend, stream: list[Query], num_clients: int = 8
) -> list[QueryResult]:
    with ThreadPoolExecutor(num_clients) as pool:
        return list(pool.map(frontend.query, stream))


def union_table(table: Table, rows: list[dict]) -> Table:
    """The original table plus ``rows`` — the full-scan oracle after inserts."""
    data = {
        name: np.concatenate(
            [table.values(name), np.asarray([row[name] for row in rows], dtype=np.int64)]
        )
        for name in table.column_names
    }
    return Table.from_arrays("oracle", data)


def insert_rows(count: int, seed: int = 23) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "x": int(v),
            "y": int(v) * 3,
            "z": int(rng.integers(0, 1_000)),
            "c": int(rng.integers(0, 8)),
        }
        for v in rng.integers(0, 10_000, count)
    ]


class BlockingBackend:
    """A backend whose run_batch blocks until released (for queue tests)."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches: list[list[Query]] = []

    def run_batch(self, queries):
        self.batches.append(list(queries))
        self.started.set()
        self.release.wait(timeout=30.0)
        from repro.storage.scan import ScanStats

        return [QueryResult(value=0.0, stats=ScanStats()) for _ in queries]


class TestConstruction:
    def test_backend_must_have_run_batch(self):
        with pytest.raises(ServingError):
            ServingFrontend(object())

    def test_negative_cache_capacity_rejected(self):
        with pytest.raises(ServingError):
            ServingConfig(cache_entries=-1)

    def test_cache_can_be_disabled(self, fresh_table, fresh_workload):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        with ServingFrontend(
            QueryEngine(index), small_config(cache_entries=0)
        ) as frontend:
            assert frontend.cache is None
            query = list(fresh_workload)[0]
            assert frontend.query(query).value == index.execute(query).value
            assert frontend.stats.cache_hits == 0


class TestConcurrentDifferential:
    def test_concurrent_cached_equals_sequential_uncached(
        self, fresh_table, fresh_workload
    ):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        queries = list(fresh_workload)
        # Sequential uncached reference: one engine, one query at a time.
        expected = {q: QueryEngine(index).run(q) for q in set(queries)}
        stream = zipf_stream(queries, 400)
        with ServingFrontend(QueryEngine(index), small_config()) as frontend:
            results = serve_concurrently(frontend, stream)
            for query, result in zip(stream, results):
                reference = expected[query]
                assert result.value == reference.value
                assert result.stats.rows_matched == reference.stats.rows_matched
            stats = frontend.describe()
        # The zipf stream actually exercised both the cache and the batcher.
        assert stats["cache"]["hits"] > 0
        assert stats["batching"]["batches"] < stats["serving"]["queries_submitted"]

    def test_lifecycle_backend_serves_identically(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 100_000)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        queries = list(fresh_workload)[:12]
        expected = [index.execute(q).value for q in queries]
        with ServingFrontend(manager, small_config()) as frontend:
            results = serve_concurrently(frontend, queries * 3)
        for query, result in zip(queries * 3, results):
            assert result.value == expected[queries.index(query)]


class TestWriteInvalidation:
    def test_insert_triggered_merge_invalidates_cache(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 100_000)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=50)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        probe = Query.from_ranges({"x": (2_000, 2_300)})
        rows = [{"x": 2_100, "y": 6_300, "z": 5, "c": 1} for _ in range(60)]
        with ServingFrontend(manager, small_config()) as frontend:
            before = frontend.query(probe).value
            assert frontend.query(probe).value == before  # warm: a cache hit
            assert frontend.stats.cache_hits >= 1
            frontend.insert_many(rows)  # 60 rows > threshold 50: merge fires
            assert len(index.merge_history) == 1
            assert frontend.stats.invalidations >= 1
            after = frontend.query(probe).value
            assert after == before + 60
            # Differential vs a fresh engine over the post-merge state (the
            # merged table plus the 10 rows still pending in the buffer).
            oracle = union_table(fresh_table, rows)
            expected, _ = execute_full_scan(oracle, probe)
            assert after == expected
            # And the re-cached entry keeps returning the post-merge answer.
            assert frontend.query(probe).value == expected

    def test_lifecycle_reoptimize_invalidates_cache(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        # 32 distinct novel queries (wide, single-dimension) so every one
        # misses the cache, reaches the backend, and is observed for drift.
        novel = [
            Query.from_ranges({"x": (low, low + 7_000)})
            for low in range(0, 3_200, 100)
        ]
        rows = insert_rows(15)
        with ServingFrontend(manager, small_config()) as frontend:
            warm = frontend.query(novel[0]).value
            frontend.insert_many(rows)
            invalidations_after_write = frontend.stats.invalidations
            serve_concurrently(frontend, novel)
            report = manager.report()
            assert report.drifts_detected == 1
            assert report.reoptimizations == 1
            assert report.merges == 1  # pending rows folded in before repair
            # The drift-triggered merge/reoptimize invalidated through the
            # lifecycle subscription, beyond the write-path invalidation.
            assert frontend.stats.invalidations > invalidations_after_write
            # Post-reoptimize answers are bit-identical to the full-scan
            # oracle over the merged table (nothing pending anymore).
            assert index.num_pending == 0
            for query in novel[:6] + list(fresh_workload)[:6]:
                expected, _ = execute_full_scan(index.table, query)
                assert frontend.query(query).value == expected
            oracle_warm, _ = execute_full_scan(index.table, novel[0])
            assert oracle_warm == warm + sum(
                1 for row in rows if 0 <= row["x"] <= 7_000
            )

    def test_sharded_merge_returns_post_merge_answers(self, fresh_table, fresh_workload):
        sharded = ShardedIndex(
            lambda: DeltaBufferedIndex(tsunami_factory, merge_threshold=40),
            num_shards=4,
            shard_dimension="x",
            parallelism=2,
        )
        sharded.build(fresh_table, fresh_workload)
        probe = Query.from_ranges({"x": (4_000, 4_300)})
        # All inserts land on one shard, so its buffer passes the merge
        # threshold and the shard merges mid-insert.
        rows = [{"x": 4_100, "y": 12_300, "z": 7, "c": 2} for _ in range(60)]
        with ServingFrontend(QueryEngine(sharded), small_config()) as frontend:
            before = frontend.query(probe).value
            assert frontend.query(probe).value == before
            frontend.insert_many(rows)
            assert any(len(shard.merge_history) == 1 for shard in sharded.shards)
            after = frontend.query(probe).value
            assert after == before + 60
            oracle = union_table(fresh_table, rows)
            for query in [probe] + list(fresh_workload)[:8]:
                expected, _ = execute_full_scan(oracle, query)
                assert frontend.query(query).value == expected
        # Frontend close flowed through QueryEngine.close to the shard pool.
        assert sharded._pool is None


class TestBackpressureAndShutdown:
    def test_overload_rejection_is_typed(self):
        backend = BlockingBackend()
        frontend = ServingFrontend(
            backend,
            ServingConfig(
                max_batch_size=1,
                max_queue_depth=2,
                cache_entries=0,
            ),
        )
        queries = [Query.from_ranges({"x": (i, i + 1)}) for i in range(5)]
        threads = [
            threading.Thread(target=frontend.query, args=(queries[i],))
            for i in range(3)
        ]
        threads[0].start()
        assert backend.started.wait(timeout=5.0)  # dispatcher is mid-batch
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 5.0
        while frontend.batcher.depth < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert frontend.batcher.depth == 2  # admission queue is now full
        with pytest.raises(ServerOverloadedError):
            frontend.query(queries[3])
        assert frontend.stats.rejections == 1
        backend.release.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        frontend.close()

    def test_query_timeout(self):
        backend = BlockingBackend()
        frontend = ServingFrontend(
            backend, ServingConfig(max_batch_size=1, cache_entries=0)
        )
        with pytest.raises(ServingError):
            frontend.query(Query.from_ranges({"x": (0, 1)}), timeout=0.05)
        backend.release.set()
        frontend.close()

    def test_backend_error_propagates_to_client(self, fresh_table, fresh_workload):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        with ServingFrontend(QueryEngine(index), small_config()) as frontend:
            with pytest.raises(SchemaError):
                frontend.query(Query.from_ranges({"nope": (0, 1)}))
            # The dispatcher survives a failed batch and keeps serving.
            good = list(fresh_workload)[0]
            assert frontend.query(good).value == index.execute(good).value

    def test_close_rejects_new_queries_and_is_idempotent(
        self, fresh_table, fresh_workload
    ):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        frontend = ServingFrontend(QueryEngine(index), small_config())
        query = list(fresh_workload)[0]
        frontend.query(query)
        frontend.close()
        frontend.close()  # idempotent
        assert frontend.closed
        with pytest.raises(ServerClosedError):
            frontend.query(query)
        with pytest.raises(ServerClosedError):
            frontend.insert_many(insert_rows(1))

    def test_close_unsubscribes_from_lifecycle(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 100_000)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        frontend = ServingFrontend(manager, small_config())
        assert manager._listeners == [frontend._on_lifecycle_event]
        frontend.close()
        assert manager._listeners == []

    def test_non_updatable_backend_rejects_inserts(self, fresh_table, fresh_workload):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        # QueryEngine forwards insert_many, but a read-only index refuses it.
        with ServingFrontend(QueryEngine(index), small_config()) as frontend:
            with pytest.raises(QueryError):
                frontend.insert_many(insert_rows(1))


class TestLifecycleSubscription:
    def test_subscribe_is_deduplicated_and_unsubscribe_safe(
        self, fresh_table, fresh_workload
    ):
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        events = []
        manager.subscribe(events.append)
        manager.subscribe(events.append)  # registered once
        manager.insert_many(insert_rows(600))  # pressure merge at 10%
        assert [event.kind for event in events] == ["merge"]
        manager.unsubscribe(events.append)
        manager.unsubscribe(events.append)  # unknown listener: ignored
        manager.insert_many(insert_rows(700, seed=29))
        assert len(events) == 1


class TestCacheHitObservation:
    """Cache hits must still feed the backend's drift observer (PR 8).

    The PR 6 cache answered repeated templates without touching the backend,
    so a LifecycleManager behind the front-end never saw the hottest queries
    and its drift windows starved exactly when caching worked best.
    """

    def test_cache_hits_reach_lifecycle_observer(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 64)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        query = list(fresh_workload)[0]
        with ServingFrontend(manager, small_config()) as frontend:
            for _ in range(260):
                frontend.query(query)
            # Only the cache misses executed, but every hit was observed:
            # submissions = backend executions + observed cache hits.
            frontend.query(query)  # one more round trip flushes stragglers
        stats = frontend.stats
        assert stats.cache_hits > 0
        report = manager.report()
        observed = stats.observed_cache_hits
        assert observed > 0
        assert observed <= stats.cache_hits
        # The drift windows were fed by cached traffic: far more windows than
        # the handful of actually-executed queries could ever fill.
        executed = report.queries_served
        assert executed + observed >= 64 * report.windows_observed
        assert report.windows_observed >= (executed + observed) // 64 - 1
        assert report.windows_observed > executed // 64

    def test_observation_preserves_served_values(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = DeltaBufferedIndex(tsunami_factory, merge_threshold=100_000)
        index.build(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        queries = list(fresh_workload)[:8]
        expected = [index.execute(q).value for q in queries]
        stream = zipf_stream(queries, 500, seed=9)
        with ServingFrontend(manager, small_config()) as frontend:
            results = serve_concurrently(frontend, stream)
            observed = frontend.stats.observed_cache_hits
        for query, result in zip(stream, results):
            assert result.value == expected[queries.index(query)]
        assert observed > 0

    def test_engine_backend_has_no_observer(self, fresh_table, fresh_workload):
        index = tsunami_factory().build(fresh_table, fresh_workload)
        query = list(fresh_workload)[0]
        with ServingFrontend(QueryEngine(index), small_config()) as frontend:
            for _ in range(20):
                frontend.query(query)
            assert frontend.stats.cache_hits > 0
            assert frontend.stats.observed_cache_hits == 0
