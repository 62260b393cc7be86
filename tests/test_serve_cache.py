"""Tests for the serving result cache and the micro-batching admission queue."""

import os
import sys
import threading
import time

import pytest

from repro.baselines.base import QueryResult
from repro.common.errors import ServerClosedError, ServerOverloadedError, ServingError
from repro.query.query import Query
from repro.serve import MicroBatcher, ResultCache
from repro.storage.scan import ScanStats


def make_query(low: int = 0, high: int = 100) -> Query:
    return Query.from_ranges({"x": (low, high)})


def make_result(value: float, matched: int = 3) -> QueryResult:
    stats = ScanStats()
    stats.rows_matched = matched
    stats.points_scanned = matched * 2
    return QueryResult(value=value, stats=stats)


class TestResultCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_miss_then_hit(self):
        cache = ResultCache(8)
        query = make_query()
        assert cache.get(query) is None
        cache.put(query, make_result(7.0))
        hit = cache.get(query)
        assert hit is not None and hit.value == 7.0
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_hit_returns_independent_stats_copies(self):
        cache = ResultCache(8)
        query = make_query()
        original = make_result(7.0, matched=5)
        cache.put(query, original)
        original.stats.rows_matched = 999  # caller mutates its own copy
        first = cache.get(query)
        first.stats.rows_matched = 123  # and so does a cache client
        second = cache.get(query)
        assert first.stats.rows_matched == 123
        assert second.stats.rows_matched == 5

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        a, b, c = make_query(0, 1), make_query(0, 2), make_query(0, 3)
        cache.put(a, make_result(1.0))
        cache.put(b, make_result(2.0))
        cache.get(a)  # a is now most recently used
        cache.put(c, make_result(3.0))  # evicts b
        assert cache.get(b) is None
        assert cache.get(a).value == 1.0
        assert cache.get(c).value == 3.0
        assert cache.stats.evictions == 1

    def test_invalidate_clears_entries_keeps_counters(self):
        cache = ResultCache(8)
        query = make_query()
        cache.put(query, make_result(7.0))
        assert cache.get(query) is not None
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get(query) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.hits == 1  # pre-invalidation hit survives

    def test_as_dict_serializable(self):
        import json

        cache = ResultCache(8)
        cache.get(make_query())
        json.dumps(cache.stats.as_dict())  # must not raise


def count_hand_offs(monkeypatch, arrivals=()) -> list:
    """Replace ``os.sched_yield`` with a fake that records each hand-off.

    Each call records how many arguments it got (``os.sched_yield`` takes
    none, so every entry is 0) and queues the next of ``arrivals`` (a
    callable), as a client thread released during that hand-off would, then
    nothing once they run out.  ``time.sleep`` raises meanwhile: the
    hand-off must not wait on a timer.
    """
    calls: list = []
    pending = list(arrivals)

    def fake_yield(*args):
        calls.append(len(args))
        if pending:
            pending.pop(0)()

    def no_sleep(seconds):
        raise AssertionError(f"the hand-off slept on a timer ({seconds} s)")

    monkeypatch.setattr(os, "sched_yield", fake_yield)
    monkeypatch.setattr(time, "sleep", no_sleep)
    return calls


class TestMicroBatcher:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ServingError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ServingError):
            MicroBatcher(max_queue_depth=0)

    def test_flush_on_size_does_not_wait_for_deadline(self, monkeypatch):
        batcher = MicroBatcher(max_batch_size=3)
        for item in ("a", "b", "c"):
            batcher.put(item)
        hand_offs = count_hand_offs(monkeypatch)
        assert batcher.take() == ["a", "b", "c"]
        assert hand_offs == []  # a full batch leaves without a hand-off
        assert batcher.stats.batches == 1

    def test_flush_on_deadline_with_partial_batch(self, monkeypatch):
        batcher = MicroBatcher(max_batch_size=2)
        for item in ("a", "b", "c"):
            batcher.put(item)
        hand_offs = count_hand_offs(monkeypatch)
        assert batcher.take() == ["a", "b"]  # capped at max_batch_size
        assert batcher.take() == ["c"]  # the rest leaves in the next batch
        assert hand_offs == [0]
        assert batcher.stats.batches == 2
        assert batcher.stats.largest_batch == 2

    def test_idle_gap_flushes_before_deadline(self, monkeypatch):
        batcher = MicroBatcher(max_batch_size=100)
        batcher.put("lonely")
        hand_offs = count_hand_offs(monkeypatch)
        assert batcher.take() == ["lonely"]
        assert hand_offs == [0]  # exactly one hand-off, no timed wait

    def test_idle_gap_keeps_collecting_while_arrivals_continue(self, monkeypatch):
        batcher = MicroBatcher(max_batch_size=100)
        batcher.put("a")
        hand_offs = count_hand_offs(
            monkeypatch, [lambda: batcher.put("b"), lambda: batcher.put("c")]
        )
        assert batcher.take() == ["a", "b", "c"]  # stopped when arrivals did
        assert hand_offs == [0, 0, 0]

    def test_overload_rejection_is_typed(self):
        batcher = MicroBatcher(max_batch_size=4, max_queue_depth=2)
        batcher.put("a")
        batcher.put("b")
        with pytest.raises(ServerOverloadedError):
            batcher.put("c")
        assert batcher.stats.items_rejected == 1
        assert batcher.stats.items_admitted == 2

    def test_close_drains_then_returns_none(self):
        batcher = MicroBatcher(max_batch_size=2)
        for item in ("a", "b", "c"):
            batcher.put(item)
        batcher.close()
        with pytest.raises(ServerClosedError):
            batcher.put("d")
        assert batcher.take() == ["a", "b"]
        assert batcher.take() == ["c"]
        assert batcher.take() is None
        assert batcher.closed

    def test_close_unblocks_waiting_taker(self):
        batcher = MicroBatcher()
        seen: list = []

        def taker():
            seen.append(batcher.take())

        thread = threading.Thread(target=taker)
        thread.start()
        time.sleep(0.05)
        batcher.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen == [None]

    def test_concurrent_producers_all_admitted(self):
        batcher = MicroBatcher(max_batch_size=64)
        total = 200

        def produce(offset: int):
            for i in range(total // 8):
                batcher.put(offset * 1000 + i)

        threads = [threading.Thread(target=produce, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batcher.close()
        drained: list = []
        while True:
            batch = batcher.take()
            if batch is None:
                break
            drained.extend(batch)
        assert len(drained) == total
        assert batcher.stats.items_admitted == total
        assert batcher.stats.largest_batch <= 64

    def test_take_while_producing_hands_out_every_item_once(self):
        """Puts racing take()'s hand-offs lose and duplicate nothing."""
        batcher = MicroBatcher(max_batch_size=8, max_queue_depth=10_000)
        producers, per_producer = 4, 300
        batches: list = []

        def produce(offset: int):
            for i in range(per_producer):
                batcher.put(offset * 1000 + i)

        def consume():
            while (batch := batcher.take()) is not None:
                batches.append(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            taker = threading.Thread(target=consume)
            taker.start()
            threads = [threading.Thread(target=produce, args=(t,)) for t in range(producers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            batcher.close()
            taker.join(timeout=30.0)
            assert not taker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        taken = [item for batch in batches for item in batch]
        for offset in range(producers):  # each producer's items, once, in order
            mine = [item for item in taken if item // 1000 == offset]
            assert mine == [offset * 1000 + i for i in range(per_producer)]
        assert len(taken) == producers * per_producer
        assert all(1 <= len(batch) <= 8 for batch in batches)
        assert batcher.stats.batches == len(batches)
