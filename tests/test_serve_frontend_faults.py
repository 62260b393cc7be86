"""Fault-tolerance tests for the serving front-end (repro.serve.frontend).

The front-end's resilience promises: a backend failure fails only its own
batch (with solo retries isolating poison queries), per-query deadlines raise
a typed error, and an abnormal dispatcher exit completes every pending and
queued future with ``DispatcherCrashedError`` instead of stranding clients.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.baselines.base import QueryResult
from repro.common import faults
from repro.common.errors import (
    DispatcherCrashedError,
    InjectedFault,
    QueryTimeoutError,
    ServingError,
)
from repro.common.faults import FaultPlan, FaultSpec
from repro.query.query import Query
from repro.serve.batcher import MicroBatcher
from repro.serve.frontend import ServingConfig, ServingFrontend
from repro.storage.scan import ScanStats

INNOCENT = Query.from_ranges({"x": (0, 100)})
OTHER = Query.from_ranges({"x": (200, 300)})
HOLD = Query.from_ranges({"x": (400, 500)})
POISON = Query.from_ranges({"x": (666, 777)})


def small_config(**overrides) -> ServingConfig:
    defaults = dict(
        max_batch_size=16,
        max_queue_depth=512,
        cache_entries=0,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class ScriptedBackend:
    """Returns value 1.0 per query; raises whenever a poison query is present.

    ``healed`` switches the poison off, so tests can assert recovery and
    un-quarantining.  Clearing ``release`` holds every call until it is set
    again; ``entered`` is set once a call has started.
    """

    def __init__(self) -> None:
        self.healed = False
        self.batches: list[int] = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def run_batch(self, queries):
        self.batches.append(len(queries))
        self.entered.set()
        self.release.wait(30.0)
        if not self.healed and any(q == POISON for q in queries):
            raise ValueError("poison query crashed the batch")
        return [QueryResult(value=1.0, stats=ScanStats()) for _ in queries]


def submit_cohort(frontend, backend, pool, queries):
    """Queue ``queries`` behind a held batch so the dispatcher takes them together.

    A HOLD query occupies the dispatcher inside ``run_batch`` while
    ``queries`` queue up; releasing it lets the next ``take()`` collect them
    as one batch.  Returns the futures of ``queries``.
    """
    backend.release.clear()
    backend.entered.clear()
    held = pool.submit(frontend.query, HOLD, 10.0)
    assert backend.entered.wait(10.0)
    futures = [pool.submit(frontend.query, query, 10.0) for query in queries]
    deadline = time.monotonic() + 10.0
    while frontend.batcher.depth < len(queries):
        assert time.monotonic() < deadline, "cohort never queued"
        time.sleep(0.001)
    backend.release.set()
    assert held.result(10.0).value == 1.0
    return futures


class BlockingBackend:
    """Blocks run_batch until released, to hold queries in flight."""

    def __init__(self) -> None:
        self.release = threading.Event()

    def run_batch(self, queries):
        self.release.wait(30.0)
        return [QueryResult(value=1.0, stats=ScanStats()) for _ in queries]


class TestConfigValidation:
    def test_bad_default_timeout_rejected(self):
        with pytest.raises(ServingError, match="default_timeout_seconds"):
            ServingConfig(default_timeout_seconds=0.0)

    def test_bad_quarantine_threshold_rejected(self):
        with pytest.raises(ServingError, match="quarantine_after"):
            ServingConfig(quarantine_after=0)


class TestBatcherDrain:
    def test_drain_empties_queue_without_flush_accounting(self):
        batcher = MicroBatcher(max_batch_size=4)
        batcher.put("a")
        batcher.put("b")
        drained = batcher.drain()
        assert drained == ["a", "b"]
        assert batcher.depth == 0
        assert batcher.stats.batches == 0
        assert batcher.drain() == []


class TestQueryDeadlines:
    def test_explicit_timeout_raises_typed_error(self):
        backend = BlockingBackend()
        frontend = ServingFrontend(backend, small_config())
        try:
            with pytest.raises(QueryTimeoutError) as excinfo:
                frontend.query(INNOCENT, timeout=0.05)
            assert excinfo.value.timeout_seconds == 0.05
        finally:
            backend.release.set()
            frontend.close()

    def test_config_default_timeout_applies(self):
        backend = BlockingBackend()
        frontend = ServingFrontend(
            backend, small_config(default_timeout_seconds=0.05)
        )
        try:
            with pytest.raises(QueryTimeoutError) as excinfo:
                frontend.query(INNOCENT)
            assert excinfo.value.timeout_seconds == 0.05
        finally:
            backend.release.set()
            frontend.close()


class TestBatchFailureIsolation:
    def test_single_query_failure_is_contained(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config())
        try:
            with pytest.raises(ValueError, match="poison"):
                frontend.query(POISON, timeout=5.0)
            # The dispatcher survived; the front-end still serves.
            assert frontend.query(INNOCENT, timeout=5.0).value == 1.0
            assert frontend.stats.batch_failures == 1
            assert frontend.stats.query_failures == 1
        finally:
            frontend.close()

    def test_poison_query_fails_alone_neighbours_survive(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(
            backend, small_config(max_batch_size=2, quarantine_after=1)
        )
        try:
            with ThreadPoolExecutor(3) as pool:
                innocent_future, poison_future = submit_cohort(
                    frontend, backend, pool, [INNOCENT, POISON]
                )
                assert innocent_future.result(10.0).value == 1.0
                with pytest.raises(ValueError, match="poison"):
                    poison_future.result(10.0)
            # HOLD alone, the failed cohort of 2, then each member solo.
            assert backend.batches == [1, 2, 1, 1]
            assert frontend.stats.solo_retries == 2
            assert frontend.stats.quarantined == 1
            assert POISON in frontend.quarantine
        finally:
            frontend.close()

    def test_quarantined_query_runs_solo_and_is_released_on_success(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(
            backend, small_config(max_batch_size=2, quarantine_after=1)
        )
        try:
            with ThreadPoolExecutor(3) as pool:
                innocent_future, poison_future = submit_cohort(
                    frontend, backend, pool, [INNOCENT, POISON]
                )
                assert innocent_future.result(10.0).value == 1.0
                with pytest.raises(ValueError):
                    poison_future.result(10.0)
                assert backend.batches == [1, 2, 1, 1]
                # Cohort poisoning got POISON quarantined (solo failure).
                with pytest.raises(ValueError):
                    frontend.query(POISON, timeout=10.0)
                assert POISON in frontend.quarantine
                failures_so_far = frontend.stats.batch_failures
                batches_so_far = frontend.batcher.stats.batches
                # Quarantined: POISON runs alone, so a shared batch with an
                # innocent query no longer fails any cohort.
                innocent_future, poison_future = submit_cohort(
                    frontend, backend, pool, [OTHER, POISON]
                )
                assert innocent_future.result(10.0).value == 1.0
                with pytest.raises(ValueError):
                    poison_future.result(10.0)
                # One batch for HOLD and one shared by OTHER and POISON,
                # which the front-end split into a cohort of 1 and a solo run.
                assert frontend.batcher.stats.batches == batches_so_far + 2
                assert backend.batches[-3:] == [1, 1, 1]
                assert frontend.stats.batch_failures == failures_so_far
                # Backend heals: the next solo run succeeds and releases it.
                backend.healed = True
                assert frontend.query(POISON, timeout=10.0).value == 1.0
                assert POISON not in frontend.quarantine
        finally:
            frontend.close()

    def test_injected_batch_fault_fails_batch_then_recovers(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config())
        plan = FaultPlan([FaultSpec(site="frontend.batch", max_triggers=1)])
        try:
            with faults.active(plan):
                with pytest.raises(InjectedFault):
                    frontend.query(INNOCENT, timeout=5.0)
                assert frontend.query(INNOCENT, timeout=5.0).value == 1.0
        finally:
            frontend.close()

    def test_cache_read_failure_is_a_miss(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config(cache_entries=64))
        plan = FaultPlan([FaultSpec(site="cache.get", max_triggers=1)])
        try:
            with faults.active(plan):
                assert frontend.query(INNOCENT, timeout=5.0).value == 1.0
            assert backend.batches == [1]  # the failed lookup went to the batcher
            assert frontend.stats.cache_hits == 0
            assert frontend.stats.dispatcher_crashes == 0
        finally:
            frontend.close()

    def test_cache_failure_never_fails_clients(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config(cache_entries=64))
        plan = FaultPlan([FaultSpec(site="cache.put", max_triggers=1)])
        try:
            with faults.active(plan):
                assert frontend.query(INNOCENT, timeout=5.0).value == 1.0
            assert frontend.stats.batch_failures == 1
            assert frontend.query(OTHER, timeout=5.0).value == 1.0
            assert frontend.stats.dispatcher_crashes == 0
        finally:
            frontend.close()


class TestDispatcherCrash:
    def test_crash_fails_pending_futures_and_closes_admissions(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config())
        plan = FaultPlan([FaultSpec(site="frontend.dispatcher", max_triggers=1)])
        try:
            with faults.active(plan):
                with pytest.raises(DispatcherCrashedError, match="dispatcher crashed"):
                    frontend.query(INNOCENT, timeout=5.0)
            assert frontend.stats.dispatcher_crashes == 1
            # Later submissions are rejected with the same typed error
            # instead of queueing toward a dispatcher that no longer exists.
            with pytest.raises(DispatcherCrashedError):
                frontend.query(OTHER, timeout=5.0)
        finally:
            frontend.close()

    def test_queued_futures_are_drained_on_crash(self):
        """Requests queued behind the crashing batch unblock exceptionally."""
        backend = BlockingBackend()
        frontend = ServingFrontend(
            backend, small_config(max_batch_size=1)
        )
        plan = FaultPlan(
            [FaultSpec(site="frontend.dispatcher", after_calls=1, max_triggers=1)]
        )
        try:
            with faults.active(plan):
                with ThreadPoolExecutor(3) as pool:
                    first = pool.submit(frontend.query, INNOCENT, 10.0)
                    time.sleep(0.05)  # first batch is in flight (blocked)
                    second = pool.submit(frontend.query, OTHER, 10.0)
                    third = pool.submit(frontend.query, POISON, 10.0)
                    time.sleep(0.05)  # second/third queued behind it
                    backend.release.set()
                    assert first.result(10.0).value == 1.0
                    with pytest.raises(DispatcherCrashedError):
                        second.result(10.0)
                    with pytest.raises(DispatcherCrashedError):
                        third.result(10.0)
            assert frontend.stats.dispatcher_crashes == 1
        finally:
            frontend.close()

    def test_close_still_works_after_crash(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config())
        plan = FaultPlan([FaultSpec(site="frontend.dispatcher", max_triggers=1)])
        with faults.active(plan):
            with pytest.raises(DispatcherCrashedError):
                frontend.query(INNOCENT, timeout=5.0)
        frontend.close()
        frontend.close()  # idempotent

    def test_describe_reports_resilience_counters(self):
        backend = ScriptedBackend()
        frontend = ServingFrontend(backend, small_config())
        try:
            serving = frontend.describe()["serving"]
            for key in (
                "batch_failures",
                "solo_retries",
                "query_failures",
                "quarantined",
                "dispatcher_crashes",
            ):
                assert serving[key] == 0
        finally:
            frontend.close()
