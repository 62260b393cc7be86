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

The delta index's :attr:`~repro.core.delta.DeltaBufferedIndex.merge_history`
is the one record of merges.  After each call that can merge (an insert,
whose threshold merges the delta index runs itself, the pressure check and
a drift's repair), the loop turns each new history entry into one ``merge``
event, or one ``maintenance_error`` event for a failed attempt, whose
details are the entry's ``as_dict()`` plus its trigger (``threshold``,
``pressure`` or ``drift``), and refits the drift detector once on the table
now served.  The ordered :class:`LifecycleEvent` log is the report: a
:class:`LifecycleReport` keeps only serving counters beside it and reads its
maintenance totals from the log, so it cannot disagree with its events or
with the index.  The benchmarks serialize it via
:meth:`LifecycleReport.as_dict`, and every event is also pushed to listeners
registered via :meth:`LifecycleManager.subscribe` — that is how the serving
front-end's result cache learns that a merge or reoptimization it did not
initiate (buffer pressure, drift) made its entries stale.

Maintenance degrades gracefully: an automatic merge is maintenance, not part
of the write, and a merge or re-optimization that fails (for real, or
through an injected fault at the ``delta.merge`` / ``lifecycle.reoptimize``
sites) is recorded as a ``maintenance_error`` event while serving continues
on the current layout.  A failed merge keeps every row buffered, and the
failed action retries the next time its trigger fires.
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
    """Serving counters plus the event log; maintenance totals come from the log."""

    queries_served: int = 0
    batches_served: int = 0
    rows_inserted: int = 0
    windows_observed: int = 0
    events: list[LifecycleEvent] = field(default_factory=list)

    def _of(self, kind: str) -> list[LifecycleEvent]:
        return [event for event in self.events if event.kind == kind]

    @property
    def drifts_detected(self) -> int:
        """Windows whose queries had drifted from the fitted workload."""
        return len(self._of("drift"))

    @property
    def merges(self) -> int:
        """Merges that folded pending rows into the table."""
        return len(self._of("merge"))

    @property
    def local_merges(self) -> int:
        """Merges that reorganized only the regions their rows touched."""
        return sum(event.details["strategy"] == "local" for event in self._of("merge"))

    @property
    def rows_merged(self) -> int:
        """Pending rows folded into the table across every merge."""
        return sum(event.details["rows_merged"] for event in self._of("merge"))

    @property
    def reoptimizations(self) -> int:
        """Drift repairs that ran to completion."""
        return len(self._of("reoptimize"))

    @property
    def regions_reoptimized(self) -> int:
        """Regions the drift repairs re-optimized."""
        return sum(
            len(event.details["regions_reoptimized"]) for event in self._of("reoptimize")
        )

    @property
    def maintenance_failures(self) -> int:
        """Merges and re-optimizations that failed."""
        return len(self._of("maintenance_error"))

    @property
    def maintenance_seconds(self) -> float:
        """Time spent in merges and re-optimizations, failed ones included."""
        return sum(event.seconds for event in self.events)


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
        self._booked = len(index.merge_history)  # history entries turned into events
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
        """Insert several rows, merging if buffer pressure demands it.

        The merges the delta index runs itself at its ``merge_threshold``
        are booked as ``threshold`` events.
        """
        rows = list(rows)
        self.index.insert_many(rows)
        self._report.rows_inserted += len(rows)
        self._book_merges("threshold")
        self._check_pressure()

    # -- the loop -----------------------------------------------------------------------

    def _check_pressure(self) -> None:
        if self.index.num_pending == 0:
            return
        main_rows = max(self.index.table.num_rows, 1)
        if self.index.num_pending / main_rows >= MERGE_PRESSURE:
            self._merge(trigger="pressure")

    def _merge(self, trigger: str) -> bool:
        """Merge pending inserts; ``False`` only when the merge *failed*.

        Maintenance (merge, reoptimize) is an optimization, not a
        correctness requirement: the delta buffer keeps absorbing inserts
        and the current layout keeps answering queries, so a failed merge is
        booked from the history as a ``maintenance_error`` event and retried
        the next time its trigger fires.
        """
        try:
            self.index.merge()
        except Exception:
            pass  # the failed attempt is in the merge history
        return self._book_merges(trigger)

    def _book_merges(self, trigger: str) -> bool:
        """Turn the index's new merge history entries into events.

        Refits the detector once if any of them folded rows in: the merge
        replaced the table it sampled selectivities from, so it resamples
        against the data now served (keeping the same workload baseline) and
        stops pinning the superseded table.  Returns whether every new entry
        succeeded.
        """
        history = self.index.merge_history
        entries = history[self._booked :]
        self._booked = len(history)
        for entry in entries:
            details = {**entry.as_dict(), "trigger": trigger}
            if entry.error is None:
                self._record("merge", entry.rebuild_seconds, details)
            else:
                details = {"operation": "merge", **details}
                self._record("maintenance_error", entry.rebuild_seconds, details)
        if self._detector is not None and any(entry.error is None for entry in entries):
            base = self.index.base_index
            workload = getattr(base, "typed_workload", None) or self.index.workload
            if workload is not None and len(workload) > 0:
                self._detector = self._detector.refit(workload, base.table)
        return all(entry.error is None for entry in entries)

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
            self._record(
                "maintenance_error",
                time.perf_counter() - start,
                {"operation": "reoptimize", "trigger": "drift", "error": repr(exc)},
            )
            return
        self._record(
            "reoptimize",
            time.perf_counter() - start,
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

    def report(self) -> LifecycleReport:
        """The running lifecycle report (live object, not a copy)."""
        return self._report
