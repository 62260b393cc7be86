"""The concurrent serving front-end: many clients, one batched pipeline.

Everything below the serving contract is a single-threaded library; the
ROADMAP's "heavy traffic from millions of users" needs the piece that turns
many concurrent clients into the batched calls the PR 2 pipeline is built
for.  :class:`ServingFrontend` is that piece:

* **Micro-batching.**  Client threads call :meth:`ServingFrontend.query`;
  arrivals are coalesced by a :class:`~repro.serve.batcher.MicroBatcher`,
  which keeps collecting only while arrivals keep coming (no timers, so a
  lone query leaves at once and a closed-loop cohort whose clients are
  ready in time leaves whole), and a
  single dispatcher thread drives each batch through the backend's
  ``run_batch`` — template dedup and one grid-tree traversal per batch.
  Bursty skewed traffic amortizes almost for free.
* **Result cache.**  A :class:`~repro.serve.cache.ResultCache` answers
  repeated templates without touching the engine.  It is invalidated on
  every write admitted through the front-end and on every ``merge`` /
  ``reoptimize`` event a :class:`~repro.core.lifecycle.LifecycleManager`
  backend reports (subscription wired automatically), so updatable indexes
  stay correct; results computed by a batch that *overlapped* such an event
  are returned to their clients but never cached (version check).
* **Backpressure.**  Admission is bounded; beyond ``max_queue_depth``
  pending requests, :meth:`query` rejects with a typed
  :class:`~repro.common.errors.ServerOverloadedError` instead of queueing
  unboundedly.
* **Fault tolerance.**  A backend failure fails only the batch that hit it
  — when the cohort had more than one member, each query is retried solo
  first, so one poison query cannot take its neighbours down.  Queries that
  repeatedly fail solo are quarantined (always executed alone) until one
  solo run succeeds.  Per-query deadlines raise a typed
  :class:`~repro.common.errors.QueryTimeoutError`, and if the dispatcher
  thread ever exits abnormally, every pending and queued request is
  completed exceptionally with
  :class:`~repro.common.errors.DispatcherCrashedError` — no client is left
  blocked on a future that nobody will complete.

Each query crosses threads twice, and neither crossing waits on a timer.
Client to dispatcher goes through the batcher's hand-off,
``os.sched_yield()``, which costs 0.4–0.7 µs where ``time.sleep(0)`` would
sleep 54–58 µs on Python 3.11 and later (2-core Linux host; see
:mod:`repro.serve.batcher`).  Dispatcher to client goes through one lock
per request, taken at admission and released once by the dispatcher; the
client's deadline is a timed ``acquire``, where a ``threading.Event``
would allocate a condition, its lock and a waiter lock per wait.

The backend is anything with ``run_batch(queries) -> list[QueryResult]``:
a :class:`~repro.query.engine.QueryEngine` (read-only or wrapping a
:class:`~repro.core.sharding.ShardedIndex` / delta index) or a
:class:`~repro.core.lifecycle.LifecycleManager` (which also observes served
queries for drift — including cache hits, which never reach ``run_batch``
but are queued and flushed into the backend's ``observe`` hook so a hot set
answered mostly from cache still counts toward drift detection).  Writes (:meth:`insert` / :meth:`insert_many`) are
forwarded to the backend when it supports them and serialized against
in-flight batches, so a batch never executes against a half-applied write.

Concurrent serving through this front-end is bit-identical to sequential
uncached execution: batches preserve arrival order per request, the cache
only replays results computed by the same engine, and the differential tests
in ``tests/test_serve_frontend.py`` pin exactly that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.baselines.base import QueryResult
from repro.common import faults
from repro.common.errors import (
    DispatcherCrashedError,
    QueryTimeoutError,
    ServerClosedError,
    ServingError,
)
from repro.common.records import Record
from repro.query.query import Query
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving front-end.

    Parameters
    ----------
    max_batch_size:
        Largest micro-batch handed to the backend; collection stops once
        this many requests are queued.
    max_queue_depth:
        Bounded admission queue; requests beyond it are rejected with
        :class:`~repro.common.errors.ServerOverloadedError`.
    cache_entries:
        Capacity of the LRU result cache; ``0`` disables result caching.
    default_timeout_seconds:
        Deadline applied to :meth:`ServingFrontend.query` calls that pass no
        explicit ``timeout``; expiry raises
        :class:`~repro.common.errors.QueryTimeoutError`.  ``None`` waits
        forever.
    quarantine_after:
        Quarantine a query after this many *solo* failures: it is then always
        executed alone (never sharing a cohort it could poison) until one
        solo execution succeeds.
    """

    max_batch_size: int = 256
    max_queue_depth: int = 2048
    cache_entries: int = 4096
    default_timeout_seconds: float | None = None
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ServingError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if (
            self.default_timeout_seconds is not None
            and self.default_timeout_seconds <= 0
        ):
            raise ServingError(
                "default_timeout_seconds must be > 0 or None, "
                f"got {self.default_timeout_seconds}"
            )
        if self.quarantine_after < 1:
            raise ServingError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        # Batch/queue bounds are validated by MicroBatcher at construction.


@dataclass
class ServingStats(Record):
    """Running totals of everything the front-end has done."""

    queries_submitted: int = 0
    queries_served: int = 0
    cache_hits: int = 0
    observed_cache_hits: int = 0
    rejections: int = 0
    write_batches: int = 0
    rows_inserted: int = 0
    invalidations: int = 0
    batch_failures: int = 0
    solo_retries: int = 0
    query_failures: int = 0
    quarantined: int = 0
    dispatcher_crashes: int = 0


class _PendingQuery:
    """One admitted request: the query plus its completion rendezvous.

    The rendezvous is one lock, taken at admission.  The dispatcher, the
    only thread that completes a request, sets the outcome and releases the
    lock exactly once (:meth:`complete`); the client waits for it with a
    timed ``acquire`` (:meth:`wait`).
    """

    __slots__ = ("query", "result", "error", "_unserved")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.result: QueryResult | None = None
        self.error: BaseException | None = None
        self._unserved = threading.Lock()
        self._unserved.acquire()

    @property
    def completed(self) -> bool:
        """Whether the dispatcher has set an outcome (read by the dispatcher).

        Not ``_unserved.locked()``: a client whose ``wait`` returned holds
        the lock again, so the lock cannot tell a request it collected from
        one still pending.
        """
        return self.result is not None or self.error is not None

    def complete(
        self,
        result: QueryResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Hand the client its outcome; the dispatcher calls this once."""
        self.result = result
        self.error = error
        self._unserved.release()

    def wait(self, timeout: float | None) -> bool:
        """Block until completed or ``timeout`` seconds pass (``None``: forever)."""
        return self._unserved.acquire(
            timeout=-1 if timeout is None else max(timeout, 0.0)
        )


class ServingFrontend:
    """Serves many concurrent clients through one micro-batched pipeline.

    Parameters
    ----------
    backend:
        Anything with ``run_batch(queries)``; a
        :class:`~repro.core.lifecycle.LifecycleManager` backend additionally
        gets its maintenance events wired into cache invalidation, and a
        backend with ``insert_many`` makes the front-end updatable.
    config:
        Batch and admission bounds, cache capacity, deadlines, quarantine.
    """

    def __init__(self, backend, config: ServingConfig | None = None) -> None:
        if not hasattr(backend, "run_batch"):
            raise ServingError(
                f"backend {type(backend).__name__!r} does not implement "
                "run_batch; wrap the index in a QueryEngine or LifecycleManager"
            )
        self.backend = backend
        self.config = config or ServingConfig()
        self.stats = ServingStats()
        self._batcher = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            max_queue_depth=self.config.max_queue_depth,
        )
        self._cache = (
            ResultCache(self.config.cache_entries)
            if self.config.cache_entries
            else None
        )
        # Serializes writes against in-flight batch executions, and guards the
        # cache-fill version check: a batch only caches its results if no
        # invalidation happened after it started executing.
        self._exec_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._version = 0
        self._closed = False
        self._crashed = False
        # Poison-query tracking: solo failure counts and the quarantine set
        # (queries in it never share a cohort).  Touched only by the
        # dispatcher thread, read by `quarantine` for observability.
        self._solo_failures: dict[Query, int] = {}
        self._quarantine: set[Query] = set()
        # Cache hits never reach the backend, but a drift-observing backend
        # (LifecycleManager) must still see them or a hot set served mostly
        # from cache drifts unnoticed.  Hits are queued here by client
        # threads and flushed to backend.observe() by the dispatcher, under
        # the execution lock — observe() is not required to be thread-safe.
        self._backend_observe = getattr(backend, "observe", None)
        self._observed_hits: list[Query] = []
        self._observed_lock = threading.Lock()
        self._subscribed = False
        if hasattr(backend, "subscribe"):
            backend.subscribe(self._on_lifecycle_event)
            self._subscribed = True
        self._dispatcher = threading.Thread(
            target=self._serve_loop, name="serving-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- client API --------------------------------------------------------------------

    def query(self, query: Query, timeout: float | None = None) -> QueryResult:
        """Answer ``query``, blocking until it is served.

        Safe to call from any number of threads.  Raises
        :class:`~repro.common.errors.ServerOverloadedError` when the
        admission queue is full, :class:`ServerClosedError` after
        :meth:`close`, :class:`~repro.common.errors.DispatcherCrashedError`
        after an abnormal dispatcher exit, and
        :class:`~repro.common.errors.QueryTimeoutError` when the deadline
        (``timeout`` seconds, defaulting to
        ``config.default_timeout_seconds``) expires first.
        """
        self._require_open()
        if timeout is None:
            timeout = self.config.default_timeout_seconds
        self.stats.queries_submitted += 1
        if self._cache is not None:
            try:
                cached = self._cache.get(query)
            except Exception:
                cached = None  # a failed lookup is a miss: the batcher serves it
            if cached is not None:
                self.stats.cache_hits += 1
                if self._backend_observe is not None:
                    with self._observed_lock:
                        self._observed_hits.append(query)
                return cached
        pending = _PendingQuery(query)
        try:
            self._batcher.put(pending)
        except ServingError:
            self.stats.rejections += 1
            raise
        if not pending.wait(timeout):
            raise QueryTimeoutError(
                f"query was not served within {timeout} seconds",
                timeout_seconds=timeout,
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def insert(self, row) -> None:
        """Insert one row through the backend, invalidating the result cache."""
        self.insert_many([row])

    def insert_many(self, rows) -> None:
        """Insert rows through the backend, invalidating the result cache.

        The write is serialized against in-flight batches, so no batch
        executes against a half-applied write, and every result cached before
        the write is dropped (pending delta-buffer rows are visible to
        queries immediately, so results go stale at insert time, not merge
        time).
        """
        rows = list(rows)
        self._require_open()
        insert = getattr(self.backend, "insert_many", None)
        if insert is None:
            raise ServingError(
                f"backend {type(self.backend).__name__!r} does not support "
                "inserts; serve an updatable index (DeltaBufferedIndex, "
                "updatable ShardedIndex, or a LifecycleManager)"
            )
        with self._exec_lock:
            insert(rows)
        self.stats.write_batches += 1
        self.stats.rows_inserted += len(rows)
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop every cached result and fence in-flight batches off the cache."""
        with self._state_lock:
            self._version += 1
            self.stats.invalidations += 1
        if self._cache is not None:
            self._cache.invalidate()

    @property
    def cache(self) -> ResultCache | None:
        """The result cache (``None`` when disabled by configuration)."""
        return self._cache

    @property
    def batcher(self) -> MicroBatcher:
        """The admission queue (live object; its stats feed the benchmarks)."""
        return self._batcher

    @property
    def quarantine(self) -> frozenset[Query]:
        """Queries currently quarantined (executed solo, never in a cohort)."""
        return frozenset(self._quarantine)

    def describe(self) -> dict:
        """Operational statistics: serving, batching, and cache counters."""
        return {
            "serving": self.stats.as_dict(),
            "batching": self._batcher.stats.as_dict(),
            "cache": self._cache.stats.as_dict() if self._cache else None,
        }

    # -- dispatcher --------------------------------------------------------------------

    def _serve_loop(self) -> None:
        """Dispatcher main loop: take a batch, execute it, repeat.

        Batch-level failures are contained — an exception escaping
        :meth:`_execute` fails only that batch's still-unfinished futures and
        the loop continues.  Anything worse (an error taking the batch, a
        :class:`BaseException`, or an injected ``frontend.dispatcher`` fault)
        is an abnormal exit: the crash handler closes admissions and
        completes every pending and queued future exceptionally with
        :class:`~repro.common.errors.DispatcherCrashedError`, so no client
        blocks on a future that nobody will ever complete.
        """
        batch: list | None = None
        try:
            while True:
                batch = self._batcher.take()
                if batch is None:
                    return  # closed and drained: the one normal exit
                faults.trigger("frontend.dispatcher")
                try:
                    self._execute(batch)
                except Exception as exc:
                    self.stats.batch_failures += 1
                    self._fail_batch(batch, exc)
                batch = None
        except BaseException as exc:
            # Deliberately broad and deliberately non-raising: the dispatcher
            # is a daemon thread, so an escaped exception would strand every
            # waiting client silently.  Record, fail futures, exit quietly.
            self._dispatcher_crashed(batch, exc)

    def _execute(self, batch: list) -> None:
        """Execute one batch: quarantined queries solo, the rest as a cohort.

        A cohort failure with more than one member triggers a solo retry of
        each member (a poison query fails alone; innocent neighbours still
        get their results).  Futures are completed *before* cache fills, so a
        cache failure can no longer affect any client of this batch — it
        surfaces as a contained batch failure in the stats.
        """
        with self._exec_lock:
            # Flush queued cache hits into the backend's drift observer
            # before the version snapshot: observation may trigger a merge /
            # reoptimize whose invalidation must fence this batch's cache
            # fills too.
            self._flush_observed_hits()
            with self._state_lock:
                version = self._version
            quarantined = [p for p in batch if p.query in self._quarantine]
            cohort = [p for p in batch if p.query not in self._quarantine]
            served: list[tuple[_PendingQuery, QueryResult]] = []
            if cohort:
                try:
                    results = self._run_backend([p.query for p in cohort])
                except Exception as exc:
                    self.stats.batch_failures += 1
                    if len(cohort) > 1:
                        self._retry_solo(cohort, served)
                    else:
                        self._solo_failed(cohort[0], exc)
                else:
                    served.extend(zip(cohort, results))
            for pending in quarantined:
                self._run_solo(pending, served)
            # A lifecycle merge/reoptimize during execution bumps the version
            # (listener below); results handed to clients are still correct
            # for their execution, but must not outlive the invalidation in
            # the cache.
            with self._state_lock:
                cacheable = self._cache is not None and version == self._version
            for pending, result in served:
                pending.complete(result=result)
            if cacheable:
                for pending, result in served:
                    self._cache.put(pending.query, result)
        self.stats.queries_served += len(served)

    def _flush_observed_hits(self) -> None:
        """Hand queued cache-hit queries to the backend's drift observer.

        Called by the dispatcher under ``_exec_lock`` (and once more at
        shutdown), so ``backend.observe`` never races ``run_batch`` on the
        same backend.  A failing observer is contained: drift observation is
        advisory and must never fail a serving batch.
        """
        if self._backend_observe is None:
            return
        with self._observed_lock:
            hits, self._observed_hits = self._observed_hits, []
        if not hits:
            return
        try:
            self._backend_observe(hits)
        except Exception:
            self.stats.batch_failures += 1
        else:
            self.stats.observed_cache_hits += len(hits)

    def _run_backend(self, queries: list[Query]) -> list[QueryResult]:
        """One backend call, with the ``frontend.batch`` fault-injection site."""
        faults.trigger("frontend.batch")
        return self.backend.run_batch(queries)

    def _run_solo(
        self,
        pending: _PendingQuery,
        served: list[tuple[_PendingQuery, QueryResult]],
    ) -> None:
        """Execute one query alone, updating its quarantine standing."""
        try:
            results = self._run_backend([pending.query])
        except Exception as exc:
            self._solo_failed(pending, exc)
        else:
            self._solo_failures.pop(pending.query, None)
            self._quarantine.discard(pending.query)
            served.append((pending, results[0]))

    def _retry_solo(
        self,
        cohort: list[_PendingQuery],
        served: list[tuple[_PendingQuery, QueryResult]],
    ) -> None:
        """Re-run a failed cohort one query at a time to isolate the poison."""
        for pending in cohort:
            self.stats.solo_retries += 1
            self._run_solo(pending, served)

    def _solo_failed(self, pending: _PendingQuery, exc: BaseException) -> None:
        """Record a solo failure, quarantining the query at the threshold."""
        count = self._solo_failures.get(pending.query, 0) + 1
        self._solo_failures[pending.query] = count
        if (
            count >= self.config.quarantine_after
            and pending.query not in self._quarantine
        ):
            self._quarantine.add(pending.query)
            self.stats.quarantined += 1
        self.stats.query_failures += 1
        pending.complete(error=exc)

    @staticmethod
    def _fail_batch(batch: list, exc: BaseException) -> None:
        """Complete every still-unfinished future in ``batch`` with ``exc``."""
        for pending in batch:
            if not pending.completed:
                pending.complete(error=exc)

    def _dispatcher_crashed(
        self, batch: list | None, exc: BaseException
    ) -> None:
        """Abnormal dispatcher exit: fail every pending and queued future.

        Marks the front-end crashed (subsequent :meth:`query` /
        :meth:`insert_many` calls raise ``DispatcherCrashedError``), closes
        admissions, and completes the in-flight batch plus everything still
        queued, exceptionally.  Clients already waiting unblock with a typed
        error instead of hanging forever.
        """
        self.stats.dispatcher_crashes += 1
        self._crashed = True
        self._batcher.close()
        error = DispatcherCrashedError(
            f"serving dispatcher crashed: {exc!r}; front-end is unavailable"
        )
        if batch is not None:
            self._fail_batch(batch, error)
        self._fail_batch(self._batcher.drain(), error)

    def _on_lifecycle_event(self, event) -> None:
        if event.kind in ("merge", "reoptimize"):
            self.invalidate_cache()

    # -- shutdown ----------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._crashed:
            raise DispatcherCrashedError(
                "serving dispatcher crashed; front-end is unavailable"
            )
        if self._closed:
            raise ServerClosedError("serving front-end is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed admission shutdown."""
        return self._closed

    def close(self) -> None:
        """Stop admissions, drain pending requests, and release resources.

        Queued queries are still served (their clients unblock normally);
        then the dispatcher exits, the lifecycle subscription is removed, and
        the backend's own ``close`` runs (which shuts down e.g. a sharded
        index's worker pool).  Idempotent.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.close()
        self._dispatcher.join()
        # The dispatcher is gone; flush any cache hits it never got to
        # observe while the backend is still open.
        with self._exec_lock:
            self._flush_observed_hits()
        if self._subscribed and hasattr(self.backend, "unsubscribe"):
            self.backend.unsubscribe(self._on_lifecycle_event)
            self._subscribed = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
