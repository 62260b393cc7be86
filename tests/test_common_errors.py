"""Tests for the typed error hierarchy (repro.common.errors).

Serving errors cross thread/future boundaries and benchmark subprocess
boundaries, so every class must be importable from the top-level package,
pickle-safe with its structured fields intact, and correctly rooted in the
hierarchy callers catch at API boundaries.
"""

import pickle

import pytest

import repro
from repro.baselines.base import QueryResult
from repro.common.errors import (
    CircuitOpenError,
    DispatcherCrashedError,
    IndexBuildError,
    InjectedFault,
    OptimizationError,
    PartialResultError,
    QueryError,
    QueryTimeoutError,
    ReproError,
    SchemaError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    ShardTimeoutError,
)
from repro.query.query import Query
from repro.serve.frontend import ServingConfig, ServingFrontend
from repro.storage.scan import ScanStats

ALL_ERRORS = [
    ReproError,
    SchemaError,
    QueryError,
    IndexBuildError,
    OptimizationError,
    ServingError,
    ServerOverloadedError,
    ServerClosedError,
    QueryTimeoutError,
    ShardTimeoutError,
    CircuitOpenError,
    PartialResultError,
    DispatcherCrashedError,
    InjectedFault,
]


class TestHierarchy:
    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_every_error_is_a_repro_error(self, cls):
        assert issubclass(cls, ReproError)

    @pytest.mark.parametrize(
        "cls",
        [
            ServerOverloadedError,
            ServerClosedError,
            QueryTimeoutError,
            ShardTimeoutError,
            CircuitOpenError,
            PartialResultError,
            DispatcherCrashedError,
        ],
    )
    def test_serving_failures_are_serving_errors(self, cls):
        assert issubclass(cls, ServingError)

    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_every_error_is_exported_from_the_package(self, cls):
        assert getattr(repro, cls.__name__) is cls
        assert cls.__name__ in repro.__all__


def _roundtrip(error):
    return pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))


class TestPickling:
    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_message_only_construction_roundtrips(self, cls):
        clone = _roundtrip(cls("something broke"))
        assert type(clone) is cls
        assert "something broke" in str(clone)

    def test_query_timeout_fields(self):
        clone = _roundtrip(QueryTimeoutError("too slow", timeout_seconds=0.25))
        assert clone.timeout_seconds == 0.25
        assert clone.message == "too slow"

    def test_shard_timeout_fields(self):
        clone = _roundtrip(
            ShardTimeoutError("shard 3 stalled", shard=3, timeout_seconds=1.5)
        )
        assert clone.shard == 3
        assert clone.timeout_seconds == 1.5

    def test_circuit_open_fields(self):
        clone = _roundtrip(
            CircuitOpenError("open", shard=1, consecutive_failures=5)
        )
        assert clone.shard == 1
        assert clone.consecutive_failures == 5

    def test_injected_fault_fields(self):
        clone = _roundtrip(
            InjectedFault("bang", site="shard.execute", kind="error", call_index=4)
        )
        assert clone.site == "shard.execute"
        assert clone.kind == "error"
        assert clone.call_index == 4

    def test_partial_result_fields(self):
        partial = QueryResult(value=41.0, stats=ScanStats())
        error = PartialResultError(
            "2 shards failed",
            partial_results=[partial],
            failed_shards=[1],
            skipped_shards=[2],
            failure_reasons={1: "InjectedFault('bang')", 2: "CircuitOpenError('open')"},
        )
        clone = _roundtrip(error)
        assert clone.failed_shards == [1]
        assert clone.skipped_shards == [2]
        assert clone.failure_reasons == {
            1: "InjectedFault('bang')",
            2: "CircuitOpenError('open')",
        }
        assert len(clone.partial_results) == 1
        assert clone.partial_results[0].value == 41.0


class _ExplodingBackend:
    """A serving backend whose run_batch always raises a structured error."""

    def __init__(self, error):
        self.error = error

    def run_batch(self, queries):
        raise self.error


class TestFutureBoundary:
    def test_partial_result_error_crosses_the_frontend_boundary(self):
        """Structured fields survive dispatcher-thread → client-thread delivery."""
        partial = QueryResult(value=7.0, stats=ScanStats())
        error = PartialResultError(
            "partial",
            partial_results=[partial],
            failed_shards=[0, 3],
            skipped_shards=[1],
            failure_reasons={0: "InjectedFault('x')"},
        )
        frontend = ServingFrontend(
            _ExplodingBackend(error),
            ServingConfig(cache_entries=0),
        )
        try:
            with pytest.raises(PartialResultError) as excinfo:
                frontend.query(Query.from_ranges({"x": (0, 10)}), timeout=5.0)
        finally:
            frontend.close()
        caught = excinfo.value
        assert caught.failed_shards == [0, 3]
        assert caught.skipped_shards == [1]
        assert caught.failure_reasons == {0: "InjectedFault('x')"}
        assert caught.partial_results[0].value == 7.0
