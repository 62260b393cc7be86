"""Tests for the serving lifecycle loop (repro.core.lifecycle)."""

import numpy as np
import pytest

from repro.baselines import KdTreeIndex
from repro.common.errors import IndexBuildError
from repro.core import lifecycle
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleManager
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query


pytestmark = pytest.mark.usefixtures("small_agd_sample")


def tsunami_factory():
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1))


def build_delta(table, workload, factory=tsunami_factory, merge_threshold=100_000):
    index = DeltaBufferedIndex(factory, merge_threshold=merge_threshold)
    index.build(table, workload)
    return index


def new_rows(count: int, seed: int = 31) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        x = int(rng.integers(0, 10_000))
        rows.append({"x": x, "y": 3 * x, "z": int(rng.integers(0, 1_000)), "c": int(rng.integers(0, 8))})
    return rows


def novel_queries(count: int, seed: int = 37) -> list[Query]:
    """Wide single-dimension queries unlike anything in the fitted workload."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        low = int(rng.integers(0, 2_000))
        queries.append(Query.from_ranges({"x": (low, low + 7_000)}))
    return queries


class TestConstruction:
    def test_requires_built_index(self):
        with pytest.raises(IndexBuildError):
            LifecycleManager(DeltaBufferedIndex(tsunami_factory))

    def test_detector_fitted_from_recorded_workload(self, fresh_table, fresh_workload):
        manager = LifecycleManager(build_delta(fresh_table, fresh_workload))
        assert manager.detector is not None

    def test_no_workload_disables_drift_detection(self, fresh_table):
        index = build_delta(fresh_table, None, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        assert manager.detector is None
        # Serving still works; windows are simply never observed.
        manager.run_batch(novel_queries(5))
        assert manager.report().windows_observed == 0


class TestServing:
    def test_run_and_run_batch_answer_correctly(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 1_000)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(20))
        queries = list(fresh_workload)[:8]
        batched = manager.run_batch(queries)
        for query, result in zip(queries, batched):
            assert result.value == index.execute(query).value
            assert manager.run(query).value == result.value
        report = manager.report()
        assert report.queries_served == len(queries) * 2
        assert report.batches_served == 1
        assert report.rows_inserted == 20


class TestMergePressure:
    def test_pressure_triggers_merge(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "MERGE_PRESSURE", 0.01)
        index = build_delta(fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(60))  # 60 / 5000 > 1%
        assert index.num_pending == 0
        report = manager.report()
        assert report.merges == 1
        assert report.rows_merged == 60
        assert [event.kind for event in report.events] == ["merge"]
        assert report.events[0].details["trigger"] == "pressure"

    def test_pressure_merge_refits_detector_on_new_table(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "MERGE_PRESSURE", 0.01)
        index = build_delta(fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        stale_table = index.table
        manager.insert_many(new_rows(60))
        assert index.num_pending == 0
        assert manager.detector is not None
        assert manager.detector._table is index.base_index.table
        assert manager.detector._table is not stale_table

    def test_rows_under_pressure_stay_pending(self, fresh_table, fresh_workload):
        index = build_delta(fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(60))  # 60 / 5000 < 10%
        assert index.num_pending == 60
        assert manager.report().merges == 0


class TestDriftLoop:
    def test_drift_triggers_reoptimize_and_advances_baselines(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(15))
        manager.run_batch(novel_queries(32))
        report = manager.report()
        assert report.windows_observed == 1
        assert report.drifts_detected == 1
        assert report.reoptimizations == 1
        kinds = [event.kind for event in report.events]
        assert "drift" in kinds
        # Pending inserts were folded in before the layout repair.
        assert index.num_pending == 0
        assert report.merges == 1
        # Queries remain correct after the whole maintenance pass.
        for query in novel_queries(6, seed=41) + list(fresh_workload)[:6]:
            expected, _ = execute_full_scan(index.table, query)
            assert index.execute(query).value == expected

    def test_events_are_stamped_with_their_window_end(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        """One batch spanning many windows stamps each drift at its own window.

        A k-d tree base records drift without repairing it, so every window
        of the novel stream drifts."""
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 128)
        index = build_delta(fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        manager.run_batch(novel_queries(1024))
        stamps = [event.at_query for event in manager.report().events if event.kind == "drift"]
        assert len(stamps) >= 2
        assert len(set(stamps)) == len(stamps)
        assert all(stamp % 128 == 0 and 0 < stamp <= 1024 for stamp in stamps)

    def test_non_tsunami_base_records_drift_only(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(
            fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512)
        )
        manager = LifecycleManager(index)
        manager.run_batch(novel_queries(32))
        report = manager.report()
        assert report.drifts_detected == 1
        assert report.reoptimizations == 0

    def test_stable_workload_never_drifts(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 40)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        # Serve the fitted workload itself, interleaved so each window mixes
        # both query types the way live traffic would.
        queries = list(fresh_workload)
        order = np.random.default_rng(3).permutation(len(queries))
        manager.run_batch([queries[i] for i in order])
        report = manager.report()
        assert report.windows_observed == 2
        assert report.drifts_detected == 0
        assert report.reoptimizations == 0


class TestTickAndReport:
    def test_tick_flushes_partial_window(self, fresh_table, fresh_workload, monkeypatch):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 1_000)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.run_batch(novel_queries(30))
        assert manager.report().windows_observed == 0
        events = manager.tick()
        assert manager.report().windows_observed == 1
        assert any(event.kind == "drift" for event in events)

    def test_tick_checks_pressure(self, fresh_table, fresh_workload, monkeypatch):
        index = build_delta(fresh_table, fresh_workload, factory=lambda: KdTreeIndex(page_size=512))
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(60))  # 60 / 5000 < 10%
        assert index.num_pending == 60
        monkeypatch.setattr(lifecycle, "MERGE_PRESSURE", 0.01)
        events = manager.tick()
        assert [event.kind for event in events] == ["merge"]
        assert index.num_pending == 0

    def test_report_as_dict_is_serializable(self, fresh_table, fresh_workload, monkeypatch):
        import json

        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(10))
        manager.run_batch(novel_queries(32))
        payload = manager.report().as_dict()
        assert payload["queries_served"] == 32
        assert payload["rows_inserted"] == 10
        json.dumps(payload)  # must not raise


class TestMaintenanceFailures:
    """Failed maintenance (merge, reoptimize) must never take serving down:
    the failure is recorded as a ``maintenance_error`` event and the action is
    retried the next time its trigger fires."""

    def test_pressure_merge_failure_keeps_serving_then_retries(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 10_000)
        monkeypatch.setattr(lifecycle, "MERGE_PRESSURE", 0.001)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        plan = FaultPlan([FaultSpec(site="delta.merge", max_triggers=1)])
        with faults.active(plan):
            manager.insert_many(new_rows(15))  # pressure merge fails inside
        report = manager.report()
        assert report.maintenance_failures == 1
        assert report.merges == 0
        assert index.num_pending == 15  # buffer intact, rows still visible
        failure = next(e for e in report.events if e.kind == "maintenance_error")
        assert failure.details["operation"] == "merge"
        assert failure.details["trigger"] == "pressure"
        assert "InjectedFault" in failure.details["error"]
        # Serving continued throughout, and the next trigger retries the merge.
        manager.run_batch(novel_queries(4))
        manager.insert(new_rows(1, seed=77)[0])
        assert manager.report().merges == 1
        assert index.num_pending == 0

    def test_failed_merge_does_not_brick_the_delta_index(self, fresh_table, fresh_workload):
        """A merge that dies mid-rebuild leaves the old index serving."""
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        index = build_delta(fresh_table, fresh_workload)
        index.insert_many(new_rows(10))
        plan = FaultPlan([FaultSpec(site="delta.merge", max_triggers=1)])
        with faults.active(plan):
            with pytest.raises(Exception):
                index.merge()
        # The wrapped index was not replaced by a half-built one.
        assert index.is_built
        query = novel_queries(1)[0]
        result = index.execute(query)
        assert result is not None
        assert index.num_pending == 10

    def test_reoptimize_failure_records_event_and_serving_continues(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(15))
        plan = FaultPlan([FaultSpec(site="lifecycle.reoptimize", max_triggers=1)])
        with faults.active(plan):
            manager.run_batch(novel_queries(32))
        report = manager.report()
        assert report.drifts_detected == 1
        assert report.reoptimizations == 0
        assert report.maintenance_failures == 1
        assert report.merges == 1  # the drift merge preceding it succeeded
        failure = next(e for e in report.events if e.kind == "maintenance_error")
        assert failure.details["operation"] == "reoptimize"
        # Queries stay correct on the unrepaired layout.
        for query in novel_queries(5, seed=53):
            expected, _ = execute_full_scan(index.table, query)
            assert manager.run(query).value == expected

    def test_failed_drift_merge_skips_reoptimization(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(15))
        plan = FaultPlan([FaultSpec(site="delta.merge")])
        with faults.active(plan):
            manager.run_batch(novel_queries(32))
        report = manager.report()
        assert report.drifts_detected == 1
        assert report.maintenance_failures == 1
        assert report.reoptimizations == 0  # layout repair skipped, not crashed
        assert index.num_pending == 15

    def test_listeners_see_maintenance_error_events(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 10_000)
        monkeypatch.setattr(lifecycle, "MERGE_PRESSURE", 0.001)
        index = build_delta(fresh_table, fresh_workload)
        manager = LifecycleManager(index)
        seen = []
        manager.subscribe(seen.append)
        plan = FaultPlan([FaultSpec(site="delta.merge", max_triggers=1)])
        with faults.active(plan):
            manager.insert_many(new_rows(15))
        assert any(event.kind == "maintenance_error" for event in seen)
