"""The serving lifecycle of an updatable index (§8, tied into one loop).

The §8 extensions each solve one piece of keeping a learned index healthy
under a live workload: :class:`~repro.core.delta.DeltaBufferedIndex` absorbs
inserts, :class:`~repro.core.drift.WorkloadDriftDetector` notices when the
query distribution has moved, and
:class:`~repro.core.incremental.IncrementalReoptimizer` repairs the layout
where it moved.  :class:`LifecycleManager` ties them into one loop:

* **Serve.**  Queries go through the wrapped index's batched pipeline
  (:meth:`LifecycleManager.run_batch` → ``DeltaBufferedIndex.execute_batch``)
  and are simultaneously *observed* into a sliding window.
* **Drift.**  Every :data:`OBSERVE_WINDOW` observed queries, the window is
  handed to the drift detector.  On drift, pending inserts are merged first
  (so the re-optimized layout covers them), then the most-shifted regions
  are incrementally re-optimized for the window's queries, the detector is
  re-fitted, and the delta index's rebuild workload is advanced so later
  merges rebuild for the workload actually being served.
* **Pressure.**  Inserts that push the buffer past :data:`MERGE_PRESSURE` (a
  fraction of the main table) trigger a merge even before the wrapper's own
  absolute ``merge_threshold`` does.

Everything the loop does is recorded in a :class:`LifecycleReport` (counters
plus an ordered :class:`LifecycleEvent` log) that the benchmarks serialize via
:meth:`LifecycleReport.as_dict`, and every event is also pushed to listeners
registered via :meth:`LifecycleManager.subscribe` — that is how the serving
front-end's result cache learns that a merge or reoptimization it did not
initiate (buffer pressure, drift) made its entries stale.

Maintenance degrades gracefully: a merge or re-optimization that fails (for
real, or through an injected fault at the ``delta.merge`` /
``lifecycle.reoptimize`` sites) is recorded as a ``maintenance_error`` event
and serving continues on the current layout — the failed action retries the
next time its trigger fires.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.baselines.base import QueryResult
from repro.common import faults
from repro.common.errors import IndexBuildError
from repro.common.records import Record
from repro.core.delta import DeltaBufferedIndex
from repro.core.drift import WorkloadDriftDetector
from repro.core.incremental import IncrementalReoptimizer
from repro.core.tsunami import TsunamiIndex
from repro.query.query import Query
from repro.query.workload import Workload

#: Observed queries per drift-detection window.
OBSERVE_WINDOW = 256
#: Pending-insert fraction of the main table's rows at which inserts
#: trigger a merge.
MERGE_PRESSURE = 0.10


@dataclass(frozen=True)
class LifecycleEvent:
    """One maintenance action (or detection) taken by the loop."""

    kind: str  # "drift" | "merge" | "reoptimize" | "maintenance_error"
    #: Observed-query offset of the event: the end of the window that fired
    #: it, or the queries observed so far for events outside a window.
    at_query: int
    seconds: float
    details: dict


@dataclass
class LifecycleReport(Record):
    """Running totals of everything the lifecycle loop has done."""

    queries_served: int = 0
    batches_served: int = 0
    rows_inserted: int = 0
    windows_observed: int = 0
    drifts_detected: int = 0
    merges: int = 0
    local_merges: int = 0
    rows_merged: int = 0
    merge_regions_touched: int = 0
    merge_regions_total: int = 0
    reoptimizations: int = 0
    regions_reoptimized: int = 0
    maintenance_failures: int = 0
    maintenance_seconds: float = 0.0
    events: list[LifecycleEvent] = field(default_factory=list)


class LifecycleManager:
    """Serves an updatable index while keeping it merged and re-optimized.

    ``index`` is a built :class:`DeltaBufferedIndex`.  Its drift detector is
    fitted on the base index's recorded workload (drift detection is
    disabled when no workload is available to fit on).  After drift, an
    :class:`IncrementalReoptimizer` with its default thresholds repairs the
    base index the delta index serves at that moment when it is a
    :class:`TsunamiIndex` (a rebuild merge replaces it); for any other base
    index drift is only recorded.
    """

    def __init__(self, index: DeltaBufferedIndex) -> None:
        if not index.is_built:
            raise IndexBuildError("LifecycleManager requires a built DeltaBufferedIndex")
        self.index = index
        self._report = LifecycleReport()
        self._window: list[Query] = []
        self._observed = 0  # queries handed to drift observation so far
        self._stamp = 0  # observed-query offset new events are stamped with
        self._listeners: list[Callable[[LifecycleEvent], None]] = []
        self._detector = self._fit_detector()

    def _fit_detector(self) -> WorkloadDriftDetector | None:
        base = self.index.base_index
        workload = getattr(base, "typed_workload", None) or self.index.workload
        if workload is None or len(workload) == 0:
            return None
        return WorkloadDriftDetector().fit(base.table, workload)

    # -- serving ----------------------------------------------------------------------

    @property
    def detector(self) -> WorkloadDriftDetector | None:
        """The drift detector currently observing the workload (if any)."""
        return self._detector

    def run(self, query: Query) -> QueryResult:
        """Answer one query and observe it."""
        result = self.index.execute(query)
        self._report.queries_served += 1
        self._observe([query])
        return result

    def run_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch through the batched pipeline and observe it."""
        queries = list(queries)
        results = self.index.execute_batch(queries)
        self._report.queries_served += len(queries)
        self._report.batches_served += 1
        self._observe(queries)
        return results

    def observe(self, queries: Sequence[Query]) -> None:
        """Feed queries into drift observation without executing them.

        Serving layers that answer queries from a result cache call this for
        their cache hits: the query never reaches :meth:`run_batch`, but the
        drift detector must still see it, or a hot set served mostly from
        cache could drift away unnoticed.  Cheap (no index execution) and
        subject to the same windowing — a full window may trigger the same
        maintenance a served window would.
        """
        queries = list(queries)
        if queries:
            self._observe(queries)

    def insert(self, row) -> None:
        """Insert one row: an :meth:`insert_many` of one."""
        self.insert_many([row])

    def insert_many(self, rows: Sequence) -> None:
        """Insert several rows, merging if buffer pressure demands it."""
        rows = list(rows)
        self.index.insert_many(rows)
        self._report.rows_inserted += len(rows)
        self._check_pressure()

    # -- the loop -----------------------------------------------------------------------

    def _check_pressure(self) -> None:
        if self.index.num_pending == 0:
            return
        main_rows = max(self.index.table.num_rows, 1)
        if self.index.num_pending / main_rows >= MERGE_PRESSURE:
            self._merge(trigger="pressure")

    def _maintenance_failed(
        self, operation: str, trigger: str, error: BaseException, seconds: float
    ) -> None:
        """Record a failed maintenance action and keep serving.

        Maintenance (merge, reoptimize) is an optimization, not a
        correctness requirement: the delta buffer keeps absorbing inserts and
        the current layout keeps answering queries, so a failed action is
        recorded as a ``maintenance_error`` event (listeners see it too) and
        retried naturally the next time its trigger fires.
        """
        self._report.maintenance_failures += 1
        self._report.maintenance_seconds += seconds
        self._record(
            "maintenance_error",
            seconds,
            {"operation": operation, "trigger": trigger, "error": repr(error)},
        )

    def _merge(self, trigger: str) -> bool:
        """Merge pending inserts; ``False`` only when the merge *failed*."""
        start = time.perf_counter()
        try:
            report = self.index.merge()
        except Exception as exc:
            self._maintenance_failed("merge", trigger, exc, time.perf_counter() - start)
            return False
        seconds = time.perf_counter() - start
        if report is None:
            return True
        self._report.merges += 1
        self._report.rows_merged += report.rows_merged
        self._report.maintenance_seconds += seconds
        # Thread the MergeReport through so scenario reports show per-merge
        # cost over time: which strategy ran, how long the reorganization
        # took, and — for local merges — how localized it actually was.
        details = {
            "trigger": trigger,
            "rows_merged": report.rows_merged,
            "total_rows": report.total_rows,
            "strategy": report.strategy,
            "merge_seconds": report.rebuild_seconds,
        }
        if report.strategy == "local":
            self._report.local_merges += 1
        if report.regions_touched is not None:
            details["regions_touched"] = report.regions_touched
            details["regions_total"] = report.regions_total
            self._report.merge_regions_touched += report.regions_touched
            self._report.merge_regions_total += report.regions_total or 0
        self._record("merge", seconds, details)
        if self._detector is not None:
            # The merge replaced the table the detector sampled selectivities
            # from; resample against the data now being served (keeping the
            # same workload baseline) so verdicts don't drift from reality and
            # the superseded table isn't pinned in memory.
            base = self.index.base_index
            workload = getattr(base, "typed_workload", None) or self.index.workload
            if workload is not None and len(workload) > 0:
                self._detector = self._detector.refit(workload, base.table)
        return True

    def _observe(self, queries: Sequence[Query]) -> None:
        self._observed += len(queries)
        if self._detector is not None:
            self._window.extend(queries)
            size = OBSERVE_WINDOW
            while len(self._window) >= size:
                window = self._window[:size]
                del self._window[:size]
                # One batch may complete several windows: each window's events
                # carry its own end offset, not the batch's.
                self._stamp = self._observed - len(self._window)
                self._evaluate_window(window)
        self._stamp = self._observed

    def _evaluate_window(self, window: list[Query]) -> None:
        assert self._detector is not None
        self._report.windows_observed += 1
        drift = self._detector.observe(window)
        if not drift.drifted:
            return
        self._report.drifts_detected += 1
        self._record("drift", 0.0, {"reasons": list(drift.reasons)})
        base = self.index.base_index
        if not isinstance(base, TsunamiIndex):
            return
        # Fold pending inserts in first so the repaired layout covers them; a
        # failed merge skips this window's re-optimization (the layout would
        # not cover the still-pending rows) and serving carries on.
        if not self._merge(trigger="drift"):
            return
        base = self.index.base_index  # the merge may have rebuilt it
        if not isinstance(base, TsunamiIndex):
            return
        observed = Workload(window, name="observed")
        start = time.perf_counter()
        try:
            faults.trigger("lifecycle.reoptimize")
            report = IncrementalReoptimizer(base).reoptimize(observed)
        except Exception as exc:
            self._maintenance_failed(
                "reoptimize", "drift", exc, time.perf_counter() - start
            )
            return
        seconds = time.perf_counter() - start
        self._report.reoptimizations += 1
        self._report.regions_reoptimized += len(report.regions_reoptimized)
        self._report.maintenance_seconds += seconds
        self._record(
            "reoptimize",
            seconds,
            {
                "regions_reoptimized": list(report.regions_reoptimized),
                "regions_considered": report.regions_considered,
            },
        )
        if report.regions_reoptimized:
            # Advance the baselines: later merges rebuild for the observed
            # workload, and the detector compares against what is now served.
            self.index.workload = base.typed_workload or observed
            self._detector = self._detector.refit(base.typed_workload or observed, base.table)

    # -- event listeners ----------------------------------------------------------------

    def subscribe(self, listener: Callable[[LifecycleEvent], None]) -> None:
        """Register ``listener`` to be called with every :class:`LifecycleEvent`.

        Listeners fire synchronously, on whichever thread triggered the
        maintenance (a serving call or an insert), immediately after the
        event is recorded — so a result cache invalidating in its listener is
        clear before the triggering call returns.  The same listener is only
        registered once.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[LifecycleEvent], None]) -> None:
        """Remove ``listener``; unknown listeners are ignored."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _record(self, kind: str, seconds: float, details: dict) -> None:
        event = LifecycleEvent(
            kind=kind,
            at_query=self._stamp,
            seconds=seconds,
            details=details,
        )
        self._report.events.append(event)
        for listener in list(self._listeners):
            listener(event)

    def tick(self) -> list[LifecycleEvent]:
        """Run one maintenance pass now, regardless of thresholds.

        Checks buffer pressure and evaluates whatever partial window has
        accumulated; returns the events the pass produced.
        """
        before = len(self._report.events)
        self._check_pressure()
        if self._detector is not None and self._window:
            window = list(self._window)
            self._window.clear()
            self._evaluate_window(window)
        return self._report.events[before:]

    def report(self) -> LifecycleReport:
        """The running lifecycle report (live object, not a copy)."""
        return self._report
