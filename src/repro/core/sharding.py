"""Scale-out serving: a sharded index that fans queries across partitions.

The ROADMAP's north star calls for serving heavy traffic from one process by
fanning work across independently optimized partitions.  :class:`ShardedIndex`
implements that layer on top of the existing serving contract:

* **Partitioning.**  Rows are range-partitioned on a configurable shard
  dimension.  Cut points are placed at equal-count positions of the
  dimension's empirical CDF (the same flat-grid idea the Augmented Grid uses
  for its partition boundaries), so skewed data still yields balanced shards.
  Cuts that would create an empty shard are dropped, so every shard built is
  non-empty.
* **Independent optimization.**  Each shard is built by an index factory
  (:class:`~repro.core.tsunami.TsunamiIndex` for read-only shards,
  :class:`~repro.core.delta.DeltaBufferedIndex` for updatable ones) over its
  own rows, optimized for the subset of the workload that intersects its
  bounding box — per-partition layout optimization is where learned indexes
  win (Flood, §6).
* **Pruning.**  Every shard keeps a per-dimension bounding box (widened by
  any pending inserts in a delta shard's buffer); shards whose box misses the
  query rectangle are skipped entirely.
* **Fan-out.**  ``execute_batch`` dedupes the batch into distinct templates,
  hands every shard the templates that intersect its box — optionally on a
  ``ThreadPoolExecutor`` (``parallelism=``; numpy gathers release the GIL) —
  and recombines the per-shard partials through
  :func:`~repro.baselines.base.combine_partial_results`.  Results are
  bit-identical to single-index execution, in input order: partial sums are
  exact integer sums in float64 and are accumulated in shard order.
* **Fault isolation.**  Each shard call runs behind a
  :class:`~repro.common.resilience.FaultPolicy`: an optional per-shard
  execution timeout (enforced on the worker pool, so a hung shard cannot
  stall the batch), bounded retry with exponential backoff and seeded jitter
  for transient failures, and a per-shard
  :class:`~repro.common.resilience.CircuitBreaker` that stops sending work to
  a shard that keeps failing (open after N consecutive failures, half-open
  probe after a cooldown; state is visible in :meth:`ShardedIndex.explain`).
  When shards still fail after all of that, the policy's degradation mode
  decides: ``"strict"`` (the default) raises a typed
  :class:`~repro.common.errors.PartialResultError` carrying the partial
  aggregates and the failed-shard list; ``"degraded"`` returns the partial
  aggregates and accounts the failure in ``explain``/``describe``.  With no
  faults, the guarded path executes the exact same shard calls in the exact
  same order, so fault-free runs stay bit-identical.

The wrapper implements the full serving contract — ``is_built`` / ``table`` /
``execute`` / ``execute_batch`` / ``execute_workload`` / ``explain`` /
``index_size_bytes`` / ``describe`` — so
:class:`~repro.query.engine.QueryEngine` wraps it unchanged.  When the
factory produces updatable shards, :meth:`insert` / :meth:`insert_many` route
each row to its owning shard by the same partition rule.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from random import Random
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines.base import (
    PartialAggregate,
    QueryResult,
    avg_as_sum,
    combine_partial_results,
    dedupe_queries,
    expand_deduped_results,
    partial_of,
    serve_workload,
)
from repro.common import faults
from repro.common.errors import (
    CircuitOpenError,
    IndexBuildError,
    PartialResultError,
    SchemaError,
    ShardTimeoutError,
)
from repro.common.records import Record
from repro.common.resilience import CircuitBreaker, FaultPolicy
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import ScanStats
from repro.storage.table import Table

#: Zero-argument callable producing a fresh shard index (any object
#: implementing the serving contract; adding ``insert_many`` makes the
#: sharded index updatable).
ShardFactory = Callable[[], object]


def balanced_cuts(values: np.ndarray, num_shards: int) -> list[int]:
    """Range-partition cut points splitting ``values`` into balanced buckets.

    Cuts are taken at equal-count positions of the sorted values (the
    empirical CDF), then thinned until no bucket of
    ``searchsorted(cuts, values, side="right")`` is empty — heavily duplicated
    values can otherwise produce empty buckets.  Returns at most
    ``num_shards - 1`` strictly increasing cut values.
    """
    if num_shards < 1:
        raise IndexBuildError(f"num_shards must be >= 1, got {num_shards}")
    ordered = np.sort(np.asarray(values))
    count = len(ordered)
    if count == 0:
        return []
    cuts = sorted(
        {int(ordered[(i * count) // num_shards]) for i in range(1, num_shards)}
    )
    while cuts:
        assigned = np.searchsorted(cuts, values, side="right")
        bucket_sizes = np.bincount(assigned, minlength=len(cuts) + 1)
        empty = np.flatnonzero(bucket_sizes == 0)
        if len(empty) == 0:
            break
        position = int(empty[0])
        del cuts[position - 1 if position > 0 else 0]
    return cuts


def scaled_tsunami_config(num_shards: int, config=None):
    """A :class:`TsunamiConfig` whose layout budget is one shard's share.

    A shard holds ``1/num_shards`` of the rows and sees a localized slice of
    the workload, so building it with the monolithic index's configuration
    over-partitions it: N shards × ``max_regions`` Grid Tree leaves means a
    query covering a large fraction of one shard's domain plans far more
    Augmented Grids than the single index would.  Dividing the region budget
    by the shard count keeps total planning work comparable while each shard
    still optimizes its own layout.
    """
    from dataclasses import replace

    from repro.core.tsunami import TsunamiConfig

    if num_shards < 1:
        raise IndexBuildError(f"num_shards must be >= 1, got {num_shards}")
    base = config or TsunamiConfig()
    tree = replace(
        base.grid_tree,
        max_regions=max(base.grid_tree.max_regions // num_shards, 2),
    )
    return replace(base, grid_tree=tree)


@dataclass
class FanOutStats(Record):
    """Cumulative fault accounting for one :class:`ShardedIndex`."""

    shard_failures: int = 0
    shard_timeouts: int = 0
    shard_retries: int = 0
    shards_skipped_open: int = 0
    partial_serves: int = 0


@dataclass
class _ShardOutcome:
    """What one shard's guarded call produced: results, or a reason it didn't."""

    results: list | None = None
    error: BaseException | None = None
    skipped_open: bool = False


class ShardedIndex:
    """N independently optimized index partitions behind one serving contract.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a fresh shard index; called once per
        shard at build time.  A factory producing
        :class:`~repro.core.delta.DeltaBufferedIndex` makes the sharded index
        updatable.
    num_shards:
        Target number of partitions; the effective count can be lower when
        the shard dimension has too few distinct values to cut.
    shard_dimension:
        Column to range-partition on.  ``None`` picks the dimension the build
        workload filters most often (falling back to the first column).
    parallelism:
        Maximum worker threads fanning ``execute_batch`` out across shards;
        ``0`` or ``1`` executes shards serially on the calling thread (unless
        a shard timeout forces the pool — see ``fault_policy``).
    fault_policy:
        Per-shard timeout / retry / circuit-breaker / degradation behavior
        (see :class:`~repro.common.resilience.FaultPolicy`).  The default
        policy is inert on the happy path: no timeout, no retries, strict
        degradation, and breakers that only trip on real failures.
    """

    name = "sharded"

    def __init__(
        self,
        index_factory: ShardFactory,
        num_shards: int = 4,
        shard_dimension: str | None = None,
        parallelism: int = 0,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if num_shards < 1:
            raise IndexBuildError(f"num_shards must be >= 1, got {num_shards}")
        if parallelism < 0:
            raise IndexBuildError(f"parallelism must be >= 0, got {parallelism}")
        self._index_factory = index_factory
        self.num_shards = num_shards
        self.shard_dimension = shard_dimension
        self.parallelism = parallelism
        self.fault_policy = fault_policy or FaultPolicy()
        self.fault_stats = FanOutStats()
        self._table: Table | None = None
        self._table_merges = 0
        self._dimension: str | None = None
        self._boundaries: np.ndarray = np.empty(0, dtype=np.int64)
        self._shards: list = []
        self._breakers: list[CircuitBreaker] = []
        self._retry_rng = Random(self.fault_policy.retry.seed)
        # Failure accounting of the most recent execute/execute_batch call
        # (shard positions that failed / were skipped by an open breaker).
        self._last_fan_out: dict = {
            "shards_failed": [],
            "shards_skipped_open": [],
            "failure_reasons": {},
        }
        # position -> (merge count, table box, pending count, widened box)
        self._box_cache: dict[int, tuple] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- build ----------------------------------------------------------------------

    @staticmethod
    def _choose_dimension(table: Table, workload: Workload | None) -> str:
        """The most frequently filtered dimension, or the first column."""
        counts = {name: 0 for name in table.column_names}
        for query in workload or ():
            for dim in query.filtered_dimensions:
                if dim in counts:
                    counts[dim] += 1
        best = max(table.column_names, key=lambda name: counts[name])
        return best if counts[best] > 0 else table.column_names[0]

    def build(self, table: Table, workload: Workload | None = None) -> "ShardedIndex":
        """Partition ``table`` and build one independently optimized shard each.

        Every shard is built over its own row subset and optimized for the
        queries of ``workload`` that intersect its bounding box.
        """
        if table.num_rows == 0:
            raise IndexBuildError(f"cannot build {self.name} over an empty table")
        dimension = self.shard_dimension or self._choose_dimension(table, workload)
        if dimension not in table:
            raise SchemaError(
                f"shard dimension {dimension!r} does not exist in table "
                f"{table.name!r}; available: {table.column_names}"
            )
        values = table.values(dimension)
        cuts = balanced_cuts(values, min(self.num_shards, table.num_rows))
        assigned = np.searchsorted(np.asarray(cuts, dtype=np.int64), values, side="right")

        shards: list = []
        for shard_id in range(len(cuts) + 1):
            row_ids = np.flatnonzero(assigned == shard_id)
            shard_table = table.subset(row_ids, name=f"{table.name}_shard{shard_id}")
            shard_workload: Workload | None = None
            if workload is not None and len(workload) > 0:
                box = {name: shard_table.bounds(name) for name in shard_table.column_names}
                local = [q for q in workload if q.intersects_box(box)]
                if local:
                    shard_workload = Workload(local, name=f"{workload.name}_shard{shard_id}")
            shard = self._index_factory()
            shard.build(shard_table, shard_workload)
            shards.append(shard)

        self._table = table
        self._table_merges = 0
        self._dimension = dimension
        self._boundaries = np.asarray(cuts, dtype=np.int64)
        self._shards = shards
        self._breakers = [self.fault_policy.build_breaker() for _ in shards]
        self._box_cache = {}
        return self

    @classmethod
    def _from_snapshot(
        cls,
        index_factory: ShardFactory,
        shards: Sequence,
        dimension: str,
        boundaries: Sequence[int],
        parallelism: int,
        table_name: str,
    ) -> "ShardedIndex":
        """Reassemble a sharded index from already-loaded shards (persistence)."""
        index = cls(
            index_factory,
            num_shards=max(len(shards), 1),
            shard_dimension=dimension,
            parallelism=parallelism,
        )
        index._shards = list(shards)
        index._dimension = dimension
        index._boundaries = np.asarray(boundaries, dtype=np.int64)
        index._table = Table.concat(table_name, [shard.table for shard in index._shards])
        index._breakers = [index.fault_policy.build_breaker() for _ in index._shards]
        index._box_cache = {}
        return index

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexBuildError("ShardedIndex has not been built yet")

    # -- serving contract --------------------------------------------------------------

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed (serving-contract parity)."""
        return bool(self._shards) and all(shard.is_built for shard in self._shards)

    @property
    def table(self) -> Table:
        """The logical (unsharded) view of every row the shards serve.

        Each shard clusters its own copy of its rows; this is the source
        table, kept for encodings and as the full-scan oracle.  When a delta
        shard merges pending inserts into its own table, the cached view is
        rebuilt by concatenating the shard tables so the logical table keeps
        covering every merged row (row order then follows shard order, not
        the original source order).  Rows still pending in a shard's buffer
        are not part of the table, as with ``DeltaBufferedIndex.table``.
        """
        self._require_built()
        assert self._table is not None
        merges = sum(len(getattr(shard, "merge_history", ())) for shard in self._shards)
        if merges != self._table_merges:
            self._table = Table.concat(self._table.name, [shard.table for shard in self._shards])
            self._table_merges = merges
        return self._table

    @property
    def shards(self) -> list:
        """The per-partition indexes, in shard-dimension order."""
        return list(self._shards)

    @property
    def dimension(self) -> str:
        """The dimension rows are range-partitioned on."""
        self._require_built()
        assert self._dimension is not None
        return self._dimension

    @property
    def boundaries(self) -> list[int]:
        """The partition cut points: shard ``i`` holds shard-dimension values
        in ``[boundaries[i-1], boundaries[i])`` (unbounded at either end)."""
        return [int(b) for b in self._boundaries]

    @property
    def num_rows(self) -> int:
        """Total rows visible to queries across every shard (including pending)."""
        self._require_built()
        return sum(
            getattr(shard, "num_rows", None) or shard.table.num_rows
            for shard in self._shards
        )

    @property
    def num_pending(self) -> int:
        """Inserted rows not yet merged into the shards' main indexes."""
        return sum(getattr(shard, "num_pending", 0) for shard in self._shards)

    # -- pruning -------------------------------------------------------------------------

    def _shard_box(self, position: int) -> dict[str, tuple[int, int]]:
        """The per-dimension bounding box of shard ``position``.

        The box over the shard's clustered table is cached and invalidated
        when a delta shard merges (its table object is replaced); pending
        buffered inserts widen the box, through the bounds the buffer's table
        view caches, so a query matching only unmerged rows is never pruned.
        The widened box is cached by buffer length, so it is recomputed once
        per insert batch rather than once per query.
        """
        shard = self._shards[position]
        merges = len(getattr(shard, "merge_history", ()))
        pending = getattr(shard, "num_pending", 0)
        cached = self._box_cache.get(position)
        if cached is None or cached[0] != merges:
            shard_table = shard.table
            box = {name: shard_table.bounds(name) for name in shard_table.column_names}
            cached = (merges, box, -1, box)
            self._box_cache[position] = cached
        if pending == 0:
            return cached[1]
        if cached[2] != pending:
            buffered = shard.buffer.table
            widened = {}
            for name, (low, high) in cached[1].items():
                buffered_low, buffered_high = buffered.bounds(name)
                widened[name] = (min(low, buffered_low), max(high, buffered_high))
            cached = (cached[0], cached[1], pending, widened)
            self._box_cache[position] = cached
        return cached[3]

    def shards_pruned(self, query: Query) -> int:
        """How many shards' bounding boxes miss ``query`` (skipped entirely)."""
        self._require_built()
        return sum(
            0 if query.intersects_box(self._shard_box(position)) else 1
            for position in range(len(self._shards))
        )

    # -- inserts ----------------------------------------------------------------------

    def _require_updatable(self) -> None:
        if not all(hasattr(shard, "insert_many") for shard in self._shards):
            raise IndexBuildError(
                f"{self.name} shards of type "
                f"{type(self._shards[0]).__name__!r} are not updatable; build "
                "with an index factory producing DeltaBufferedIndex shards"
            )

    def insert(self, row: Mapping[str, object]) -> None:
        """Insert one row, routed to its owning shard by the partition rule."""
        self.insert_many([row])

    def insert_many(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Insert several rows, routed per shard through the vectorized path.

        Every row is schema-checked and every column converted once, before
        any shard buffers anything, so a bad value rejects the whole batch
        (the same all-or-nothing contract as
        ``DeltaBufferedIndex.insert_many``) instead of leaving earlier shards
        with half the batch inserted.  Each shard buffers its slice of that
        one encoding.
        """
        rows = list(rows)
        if not rows:
            return
        self._require_built()
        self._require_updatable()
        assert self._dimension is not None
        columns = self._shards[0].table.encode_rows(rows)
        assigned = np.searchsorted(self._boundaries, columns[self._dimension], side="right")
        for shard_id in np.unique(assigned):
            selected = np.flatnonzero(assigned == shard_id)
            self._shards[int(shard_id)].insert_encoded(
                {name: array[selected] for name, array in columns.items()}
            )

    def merge(self) -> list:
        """Fold every shard's pending inserts into its main index.

        Returns the per-shard :class:`~repro.core.delta.MergeReport` objects
        (``None`` entries for shards whose buffer was empty).
        """
        self._require_built()
        self._require_updatable()
        reports = []
        for position, shard in enumerate(self._shards):
            faults.trigger("shard.merge", key=position)
            reports.append(shard.merge())
        return reports

    # -- queries ----------------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The fan-out worker pool, created lazily and reused across batches.

        Spawning threads per batch would dominate small batches; numpy
        gathers and filter masks release the GIL, so shard batches overlap on
        multi-core hosts.  When a shard timeout is configured the pool is
        sized to run every shard concurrently (capped), so one hung shard
        cannot queue-block the others into spurious timeouts.
        """
        with self._pool_lock:
            if self._pool is None:
                workers = max(self.parallelism, 1)
                if self.fault_policy.shard_timeout_seconds is not None:
                    workers = max(workers, len(self._shards))
                self._pool = ThreadPoolExecutor(
                    max_workers=min(workers, 32), thread_name_prefix="shard"
                )
            return self._pool

    def _use_pool(self, num_tasks: int) -> bool:
        if self.fault_policy.shard_timeout_seconds is not None:
            return True
        return self.parallelism > 1 and num_tasks > 1

    def _execute_wave(
        self, tasks: list, run_task
    ) -> tuple[list[tuple[int, list]], list[tuple[int, BaseException]]]:
        """Run one attempt over ``tasks``; returns (successes, failures).

        Each task touches exactly one shard, so shard-local mutable state
        (plan caches, scan stats) is never shared across workers.  With a
        shard timeout configured, tasks run on the pool and each must finish
        within ``shard_timeout_seconds`` of the wave start (they run
        concurrently under that shared deadline); a worker that overruns is
        abandoned — Python threads cannot be killed — and its shard accounted
        as timed out.
        """
        timeout = self.fault_policy.shard_timeout_seconds
        successes: list[tuple[int, list]] = []
        failures: list[tuple[int, BaseException]] = []
        if self._use_pool(len(tasks)):
            pool = self._ensure_pool()
            futures = [(task[0], pool.submit(run_task, task)) for task in tasks]
            deadline = None if timeout is None else time.monotonic() + timeout
            for position, future in futures:
                remaining = (
                    None if deadline is None else max(deadline - time.monotonic(), 0.0)
                )
                try:
                    successes.append((position, future.result(remaining)))
                except FutureTimeoutError:
                    future.cancel()  # drop it if still queued; running ones finish ignored
                    self.fault_stats.shard_timeouts += 1
                    failures.append(
                        (
                            position,
                            ShardTimeoutError(
                                f"shard {position} exceeded its execution budget "
                                f"of {timeout}s",
                                shard=position,
                                timeout_seconds=timeout,
                            ),
                        )
                    )
                except Exception as exc:
                    failures.append((position, exc))
        else:
            for task in tasks:
                try:
                    successes.append((task[0], run_task(task)))
                except Exception as exc:
                    failures.append((task[0], exc))
        return successes, failures

    def _run_guarded(self, tasks: list, run_task) -> dict[int, _ShardOutcome]:
        """Run per-shard tasks behind breakers, retries, and timeouts.

        ``tasks`` hold one entry per shard position (position first).  Shards
        whose breaker refuses work are skipped without execution; the rest
        run in retry waves — transient failures are retried up to
        ``retry.max_retries`` times with jittered exponential backoff between
        waves.  Breakers record one success or one final failure per task
        (attempts are not individually counted, so one flaky call survived by
        a retry does not creep a breaker toward open).
        """
        policy = self.fault_policy
        outcomes: dict[int, _ShardOutcome] = {}
        task_by_position: dict[int, object] = {}
        pending: list = []
        for task in tasks:
            position = task[0]
            breaker = self._breakers[position]
            if breaker.allow():
                task_by_position[position] = task
                pending.append(task)
            else:
                self.fault_stats.shards_skipped_open += 1
                outcomes[position] = _ShardOutcome(
                    error=CircuitOpenError(
                        f"shard {position} circuit breaker is open "
                        f"({breaker.consecutive_failures} consecutive failures)",
                        shard=position,
                        consecutive_failures=breaker.consecutive_failures,
                    ),
                    skipped_open=True,
                )
        attempt = 0
        while pending:
            successes, failures = self._execute_wave(pending, run_task)
            for position, results in successes:
                self._breakers[position].record_success()
                outcomes[position] = _ShardOutcome(results=results)
            if not failures:
                break
            if attempt >= policy.retry.max_retries:
                for position, error in failures:
                    self._breakers[position].record_failure()
                    self.fault_stats.shard_failures += 1
                    outcomes[position] = _ShardOutcome(error=error)
                break
            self.fault_stats.shard_retries += len(failures)
            delay = policy.retry.delay_seconds(attempt, self._retry_rng)
            if delay > 0:
                time.sleep(delay)
            pending = [task_by_position[position] for position, _ in failures]
            attempt += 1
        return outcomes

    def _fan_out(
        self, distinct: Sequence[Query]
    ) -> tuple[list[list[PartialAggregate]], dict]:
        """Serve the distinct templates across shards; partials plus accounting.

        Partials are accumulated in shard-position order regardless of which
        worker finished first, so fault-free recombination is bit-identical
        to serial execution.
        """
        tasks: list[tuple[int, list[int]]] = []
        for position in range(len(self._shards)):
            box = self._shard_box(position)
            hit = [i for i, query in enumerate(distinct) if query.intersects_box(box)]
            if hit:
                tasks.append((position, hit))

        def run_shard(task: tuple[int, list[int]]) -> list[QueryResult]:
            position, hit = task
            faults.trigger("shard.execute", key=position)
            return self._shards[position].execute_batch(
                [avg_as_sum(distinct[i]) for i in hit]
            )

        outcomes = self._run_guarded(tasks, run_shard)
        partials_per_query: list[list[PartialAggregate]] = [[] for _ in distinct]
        failed: list[int] = []
        skipped: list[int] = []
        reasons: dict[int, str] = {}
        for position, hit in tasks:
            outcome = outcomes[position]
            if outcome.error is not None:
                (skipped if outcome.skipped_open else failed).append(position)
                reasons[position] = repr(outcome.error)
                continue
            for i, result in zip(hit, outcome.results):
                partials_per_query[i].append(partial_of(result))
        report = {
            "shards_failed": failed,
            "shards_skipped_open": skipped,
            "failure_reasons": reasons,
        }
        self._last_fan_out = report
        if failed or skipped:
            self.fault_stats.partial_serves += 1
        return partials_per_query, report

    def _finish_fan_out(self, results: list[QueryResult], report: dict):
        """Apply the degradation policy to one fan-out's combined results."""
        if not (report["shards_failed"] or report["shards_skipped_open"]):
            return results
        if self.fault_policy.degradation == "degraded":
            return results
        raise PartialResultError(
            f"{len(report['shards_failed'])} shard(s) failed and "
            f"{len(report['shards_skipped_open'])} were skipped by open circuit "
            "breakers; partial aggregates attached",
            partial_results=results,
            failed_shards=report["shards_failed"],
            skipped_shards=report["shards_skipped_open"],
            failure_reasons=report["failure_reasons"],
        )

    def close(self) -> None:
        """Shut down the fan-out worker pool (idempotent).

        Long-running servers would otherwise leak the persistent pool's
        threads on every index they retire.  Safe to call while a batch is in
        flight (the shutdown waits for in-flight shard tasks, and the fan-out
        holds its own pool reference), and safe to call repeatedly.  The
        index remains usable after closing: the next threaded batch lazily
        recreates the pool.  The serving front-end's shutdown path calls this
        through :meth:`~repro.query.engine.QueryEngine.close`.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def execute(self, query: Query) -> QueryResult:
        """Answer ``query`` over every non-pruned shard: a batch of one."""
        return self.execute_batch([query])[0]

    def execute_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries with per-shard fan-out.

        The batch is deduped into distinct templates; every shard receives
        the templates intersecting its bounding box and serves them through
        its own batched pipeline (shard batches run concurrently when
        ``parallelism > 1``).  Per-shard partials are recombined in shard
        order, so results are bit-identical to a single index's, in input
        order.  Under the fault policy's ``"strict"`` degradation (the
        default), a shard failure raises
        :class:`~repro.common.errors.PartialResultError` with the full
        batch's partial results attached; ``"degraded"`` returns the partial
        aggregates over the shards that answered.
        """
        self._require_built()
        queries = list(queries)
        if not queries:
            return []
        distinct, order = dedupe_queries(queries)
        partials_per_query, report = self._fan_out(distinct)
        combined = [
            combine_partial_results(query.aggregate, partials)
            for query, partials in zip(distinct, partials_per_query)
        ]
        return self._finish_fan_out(expand_deduped_results(combined, order), report)

    def execute_workload(self, workload: Workload) -> tuple[list[QueryResult], ScanStats]:
        """Execute every query in ``workload`` and return results plus total work."""
        return serve_workload(self, workload)

    # -- reporting --------------------------------------------------------------------

    def explain(self, query: Query) -> dict:
        """The combined plan for ``query``: per-shard plans plus pruning counters.

        Also reports the fault-isolation state the next execution would see:
        every shard's circuit-breaker state (open shards would be skipped),
        and the failure accounting of the most recent execution
        (``shards_failed`` / ``shards_skipped_open``) — the counters degraded
        mode uses to report partial answers.
        """
        self._require_built()
        shard_plans = []
        pruned = 0
        for position in range(len(self._shards)):
            if query.intersects_box(self._shard_box(position)):
                shard_plans.append((position, self._shards[position].explain(query)))
            else:
                pruned += 1
        rows_to_scan = sum(plan["rows_to_scan"] for _, plan in shard_plans)
        inner = self._shards[0].name
        return {
            "index": f"{self.name}({inner})",
            "filtered_dimensions": list(query.filtered_dimensions),
            "aggregate": query.aggregate,
            "num_shards": len(self._shards),
            "shards_pruned": pruned,
            "shard_dimension": self._dimension,
            "cell_ranges": sum(plan["cell_ranges"] for _, plan in shard_plans),
            "rows_to_scan": rows_to_scan,
            "exact_rows": sum(plan.get("exact_rows", 0) for _, plan in shard_plans),
            "table_fraction_scanned": rows_to_scan / max(self.num_rows, 1),
            "shard_plans": {position: plan for position, plan in shard_plans},
            "degradation": self.fault_policy.degradation,
            "circuit_breakers": [breaker.state for breaker in self._breakers],
            "shards_failed": list(self._last_fan_out["shards_failed"]),
            "shards_skipped_open": list(self._last_fan_out["shards_skipped_open"]),
        }

    def index_size_bytes(self) -> int:
        """Sum of the shard structures plus the partition boundaries."""
        self._require_built()
        return (
            sum(shard.index_size_bytes() for shard in self._shards)
            + 8 * len(self._boundaries)
            + 64
        )

    def describe(self) -> dict:
        """Structural statistics of the partitioning and every shard."""
        self._require_built()
        return {
            "name": self.name,
            "num_shards": len(self._shards),
            "shard_dimension": self._dimension,
            "boundaries": self.boundaries,
            "parallelism": self.parallelism,
            "total_rows": self.num_rows,
            "pending_inserts": self.num_pending,
            # Updatable shards merge independently (a hot shard's merge never
            # touches a cold shard); surface the strategy their buffers use.
            "merge_strategy": getattr(self._shards[0], "merge_strategy", None),
            "rows_per_shard": [
                getattr(shard, "num_rows", None) or shard.table.num_rows
                for shard in self._shards
            ],
            "degradation": self.fault_policy.degradation,
            "fault_stats": self.fault_stats.as_dict(),
            "circuit_breakers": [breaker.as_dict() for breaker in self._breakers],
            "shards": [shard.describe() for shard in self._shards],
        }
