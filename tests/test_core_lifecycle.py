"""Tests for the serving lifecycle loop (repro.core.lifecycle)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import KdTreeIndex
from repro.common import faults
from repro.common.errors import IndexBuildError
from repro.common.faults import FaultPlan, FaultSpec
from repro.core import lifecycle
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleManager
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


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


class TestThresholdMerges:
    """The merges the delta index runs itself at ``merge_threshold`` are
    booked from its history like the loop's own."""

    @pytest.mark.parametrize(
        "factory, strategy",
        [(tsunami_factory, "local"), (lambda: KdTreeIndex(page_size=512), "rebuild")],
        ids=["local", "rebuild"],
    )
    def test_threshold_merge_is_one_event(self, fresh_table, fresh_workload, factory, strategy):
        index = build_delta(fresh_table, fresh_workload, factory=factory, merge_threshold=100)
        manager = LifecycleManager(index)
        seen = []
        manager.subscribe(seen.append)
        manager.insert_many(new_rows(150))  # 100 merge, 50 stay below 10%
        report = manager.report()
        assert [event.kind for event in report.events] == ["merge"]
        event = report.events[0]
        assert event.details["trigger"] == "threshold"
        assert event.details["strategy"] == strategy
        assert event.details["rows_merged"] == 100
        assert seen == report.events
        assert report.merges == len(index.merge_history) == 1
        assert report.rows_merged == 100
        assert index.num_pending == 50
        # The detector samples the merged table, not the one it replaced.
        assert manager.detector._table is index.base_index.table
        assert manager.detector._table.num_rows == 5_100

    def test_failed_threshold_merge_is_one_maintenance_error(
        self, fresh_table, fresh_workload, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 10_000)
        index = build_delta(fresh_table, fresh_workload, merge_threshold=10)
        manager = LifecycleManager(index)
        stale_table = manager.detector._table
        plan = FaultPlan([FaultSpec(site="delta.merge", max_triggers=1)])
        with faults.active(plan):
            manager.insert_many(new_rows(15))  # must not raise
        assert index.num_pending == 15
        report = manager.report()
        assert [event.kind for event in report.events] == ["maintenance_error"]
        failure = report.events[0].details
        assert failure["operation"] == "merge"
        assert failure["trigger"] == "threshold"
        assert "InjectedFault" in failure["error"]
        assert report.maintenance_failures == 1
        assert report.merges == 0
        assert manager.detector._table is stale_table
        # The next threshold crossing retries and merges every pending row.
        manager.insert(new_rows(1, seed=77)[0])
        assert index.num_pending == 0
        assert report.merges == 1 and report.rows_merged == 16
        assert [entry.error is None for entry in index.merge_history] == [False, True]
        assert manager.detector._table is index.base_index.table


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


class TestReport:
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
        assert payload["merges"] == 1 and payload["reoptimizations"] == 1
        assert "merge_regions_touched" not in payload
        json.dumps(payload)  # must not raise

    def test_totals_are_read_from_the_event_log(self, fresh_table, fresh_workload, monkeypatch):
        """Every maintenance total is a reading of the events, so they agree."""
        monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        index = build_delta(fresh_table, fresh_workload, merge_threshold=40)
        manager = LifecycleManager(index)
        manager.insert_many(new_rows(90))  # two threshold merges, 10 rows left
        manager.run_batch(novel_queries(32))  # drift: merge the 10, then repair
        report = manager.report()
        merges = [event for event in report.events if event.kind == "merge"]
        assert [event.details["trigger"] for event in merges] == ["threshold", "threshold", "drift"]
        assert report.merges == len(index.merge_history) == 3
        assert report.local_merges == 3
        assert report.rows_merged == 90
        assert report.drifts_detected == 1
        assert report.reoptimizations == 1
        assert report.regions_reoptimized == len(
            next(e for e in report.events if e.kind == "reoptimize").details["regions_reoptimized"]
        )
        assert report.maintenance_failures == 0
        assert report.maintenance_seconds == pytest.approx(
            sum(event.seconds for event in report.events)
        )


class TestMaintenanceFailures:
    """Failed maintenance (merge, reoptimize) must never take serving down:
    the failure is recorded as a ``maintenance_error`` event and the action is
    retried the next time its trigger fires."""

    def test_pressure_merge_failure_keeps_serving_then_retries(
        self, fresh_table, fresh_workload, monkeypatch
    ):
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


#: One step of a random serving sequence: an insert of ``size`` rows, or one
#: observation window of the fitted workload's queries or of novel ones;
#: ``faulted`` (one step in three) fails the step's first merge attempt, if
#: it makes one.
fault_flag = st.sampled_from([False, False, True])
loop_step = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([7, 40, 90, 230, 520]), fault_flag, st.integers(0, 2**16)),
    st.tuples(st.sampled_from(["stable", "novel"]), st.just(0), fault_flag, st.integers(0, 2**16)),
)
loop_steps = st.lists(loop_step, min_size=1, max_size=6)
#: Below and above the 10% pressure of the 5,000-row table.
merge_thresholds = st.sampled_from([60, 700])
random_interleavings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def merge_record(event) -> dict:
    """A merge or failed-merge event's history entry: its details without
    what the loop adds."""
    return {key: value for key, value in event.details.items() if key not in ("operation", "trigger")}


class TestRandomInterleavings:
    """Random inserts, query windows and one-shot merge faults through the
    loop, checked after every step: answers against the full scan, merge
    events against the index's history, and the detector's table."""

    @settings(random_interleavings, max_examples=10)
    @given(steps=loop_steps, merge_threshold=merge_thresholds)
    def test_tsunami_base(self, small_table, skewed_workload, monkeypatch, steps, merge_threshold):
        """Local merges, and drift repaired by re-optimization."""
        drive_loop(small_table, skewed_workload, monkeypatch, tsunami_factory, steps, merge_threshold)

    @settings(random_interleavings, max_examples=40)
    @given(steps=loop_steps, merge_threshold=merge_thresholds)
    def test_kdtree_base(self, small_table, skewed_workload, monkeypatch, steps, merge_threshold):
        """Rebuild merges, and drift recorded only."""
        drive_loop(
            small_table, skewed_workload, monkeypatch, lambda: KdTreeIndex(page_size=512), steps, merge_threshold
        )


def drive_loop(small_table, skewed_workload, monkeypatch, factory, steps, merge_threshold) -> None:
    """Serve ``steps`` through a loop over a fresh delta index, checking the
    invariants after each one."""
    monkeypatch.setattr(lifecycle, "OBSERVE_WINDOW", 16)
    columns = {name: np.array(small_table.values(name)) for name in small_table.column_names}
    index = DeltaBufferedIndex(factory, merge_threshold=merge_threshold)
    index.build(Table.from_arrays("corr", columns), Workload(skewed_workload.queries))
    manager = LifecycleManager(index)
    stable = list(skewed_workload)
    sent: list[dict] = []
    for kind, size, faulted, seed in steps:
        plan = FaultPlan([FaultSpec(site="delta.merge", max_triggers=1)] if faulted else [])
        with faults.active(plan):
            if kind == "insert":
                rows = new_rows(size, seed=seed)
                manager.insert_many(rows)  # never raises for a merge
                sent.extend(rows)
                queries = [stable[seed % len(stable)], novel_queries(1, seed=seed)[0]]
                answers = index.execute_batch(queries)  # not observed
            elif kind == "stable":
                order = np.random.default_rng(seed).permutation(len(stable))[:16]
                queries = [stable[i] for i in order]
                answers = manager.run_batch(queries)
            else:
                queries = novel_queries(16, seed=seed)
                answers = manager.run_batch(queries)
        oracle = Table.from_arrays(
            "oracle",
            {
                name: np.concatenate([values, np.array([row[name] for row in sent], dtype=np.int64)])
                for name, values in columns.items()
            },
        )
        for query, answer in zip(queries, answers):
            assert answer.value == execute_full_scan(oracle, query)[0]
        history = index.merge_history
        booked = [
            event
            for event in manager.report().events
            if event.kind == "merge" or event.details.get("operation") == "merge"
        ]
        assert [(event.kind == "merge", merge_record(event)) for event in booked] == [
            (entry.error is None, entry.as_dict()) for entry in history
        ]
        assert manager.report().merges == sum(entry.error is None for entry in history)
        for entry in history:
            if entry.strategy == "local" and entry.error is None:
                assert entry.regions_touched <= entry.regions_total
        assert manager.detector._table is index.base_index.table
