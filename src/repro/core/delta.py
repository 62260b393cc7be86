"""Insert support via delta buffers (§8, "Data and Workload Shift").

Tsunami as published is read-only.  The paper sketches how insertions could be
supported: "each leaf node in the Grid Tree could maintain a sibling node that
acts as a delta index [39] in which updates are buffered and periodically
merged into the main node."  :class:`DeltaBufferedIndex` implements that idea
one level up, wrapping *any* clustered index in the repository:

* Inserted rows land in a :class:`DeltaBuffer` — a columnar, amortized-growth
  set of ``int64`` arrays in the same storage domain the main index uses.
  :meth:`DeltaBufferedIndex.insert_many` converts whole columns at once
  through :meth:`~repro.storage.table.Table.encode_rows` and buffers them
  with :meth:`DeltaBufferedIndex.insert_encoded`, so bulk ingestion is
  vectorized end to end; :meth:`DeltaBufferedIndex.insert` is an
  ``insert_many`` of one row.
* Pending rows are table rows: the buffer shows its live rows as one
  :class:`~repro.storage.table.Table` of ``int64`` columns
  (:attr:`DeltaBuffer.table`, rebuilt after an append), and every reader
  goes through it — the buffer's scan, local merges, the rebuild merge's
  concatenation and a sharded index's pruning boxes.
* Queries are answered by combining the main index's result with one scan
  of that table through the same :class:`~repro.storage.scan.ScanExecutor`
  (one row range holding every pending row), so reads always see every
  insert immediately and the buffer's work counters are those of a scan.
* Once the buffer reaches ``merge_threshold`` rows (or on an explicit
  :meth:`merge` call), the buffered rows are folded into the table — the
  "periodic merge" of the differential-file technique the paper cites.
  :attr:`DeltaBufferedIndex.merge_history` records every attempt, a failed
  one with its ``error``; it is the one record of merges, and the lifecycle
  loop reads its events from it.  An automatic merge is maintenance, not
  part of the write: one that fails keeps every row buffered (the rest of
  the batch included) and is retried at the next threshold crossing, while
  an explicit :meth:`merge` re-raises.  How the fold happens is controlled by
  ``merge_strategy``:

  * ``"local"`` (the default): when the wrapped index is a built
    :class:`~repro.core.tsunami.TsunamiIndex`, the merge routes buffered rows
    to their owning Grid Tree regions and reorganizes *only the touched
    regions* (see :mod:`repro.core.local_merge`) — regions whose pending-row
    fraction stays at or under
    :data:`~repro.core.local_merge.DEFAULT_SPLIT_THRESHOLD` absorb the rows
    with an in-place re-sort of just their row range, overflowing (or
    previously empty) regions get a locally re-optimized grid.  Untouched
    regions keep their rows, grids, and plan caches, so sustained-insert cost
    scales with the rows that moved, not with the table.  Any other wrapped
    index falls back to the global rebuild below (recorded as
    ``strategy="rebuild"`` in the :class:`MergeReport`).
  * ``"rebuild"``: the original global path — concatenate the buffer onto
    the table and rebuild the whole wrapped index from scratch.  Kept as an
    escape hatch and as the differential-testing oracle: query results after
    any insert/merge interleaving are bit-identical between the two
    strategies.

The wrapper implements the full serving contract of
:class:`~repro.baselines.base.ClusteredIndex` — ``is_built`` / ``table`` /
``execute`` / ``execute_batch`` / ``execute_workload`` / ``explain`` /
``index_size_bytes`` / ``describe`` — so it can sit behind
:class:`~repro.query.engine.QueryEngine` and serve through the batched
pipeline at the same speed as a read-only index: a batch is deduped into
distinct templates, routed through the wrapped index's batched pipeline once,
the buffer is scanned once per distinct template, and the two partial results
are recombined per aggregate with
:func:`~repro.baselines.base.combine_partial_results`, as a sharded index
recombines its shards; ``execute`` is a batch of one.  ``avg`` is recombined
in a single pass: the main index and the buffer each execute the
corresponding ``sum`` query, whose scan already counts the matching rows
(``ScanStats.rows_matched``), so no second count-query execution is needed
and the reported scan work is conserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines.base import (
    ClusteredIndex,
    QueryResult,
    avg_as_sum,
    combine_partial_results,
    dedupe_queries,
    expand_deduped_results,
    partial_of,
    serve_workload,
)
from repro.common import faults
from repro.common.errors import IndexBuildError, SchemaError
from repro.common.records import Record
from repro.core.local_merge import local_merge, supports_local_merge
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.scan import RowRange, ScanExecutor, ScanStats
from repro.storage.table import Table

IndexFactory = Callable[[], ClusteredIndex]

#: Per-column rows a :class:`DeltaBuffer` allocates when created or cleared.
MIN_BUFFER_CAPACITY = 64


#: Valid values of ``DeltaBufferedIndex.merge_strategy``.
MERGE_STRATEGIES = ("local", "rebuild")


@dataclass
class MergeReport(Record):
    """Outcome of folding the delta buffer into the main index.

    ``strategy`` records the path that actually ran (a ``"local"`` request
    falls back to ``"rebuild"`` when the wrapped index has no region layout);
    ``regions_touched`` / ``regions_total`` are filled by local merges only.
    ``rebuild_seconds`` keeps its historical name and times the whole
    attempt.  A failed attempt carries its ``error`` (the exception's
    ``repr``), merged no rows, and reports the table it left in place.
    """

    rows_merged: int
    rebuild_seconds: float
    total_rows: int
    strategy: str = "rebuild"
    regions_touched: int | None = None
    regions_total: int | None = None
    error: str | None = None


class DeltaBuffer:
    """A columnar insert buffer with amortized-growth ``int64`` storage.

    Values are appended into preallocated per-column arrays that double in
    capacity when full, so appends are amortized O(1).  Every reader sees the
    pending rows through :attr:`table`, a :class:`~repro.storage.table.Table`
    of ``int64`` views over the live prefix of each array, built on first
    use after an append; queries scan it with the same
    :class:`~repro.storage.scan.ScanExecutor` the main index uses.
    """

    def __init__(self, column_names: Sequence[str]) -> None:
        names = list(column_names)
        if not names:
            raise SchemaError("DeltaBuffer needs at least one column")
        if len(set(names)) != len(names):
            raise SchemaError(f"DeltaBuffer has duplicate column names: {names}")
        self._names = names
        self._capacity = MIN_BUFFER_CAPACITY
        self._size = 0
        self._data = {name: np.empty(self._capacity, dtype=np.int64) for name in names}
        # Scans the table view of the live rows; ``None`` after an append.
        self._executor: ScanExecutor | None = None

    # -- protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"DeltaBuffer(columns={self._names}, rows={self._size}, "
            f"capacity={self._capacity})"
        )

    @property
    def capacity(self) -> int:
        """Currently allocated rows per column (grows by doubling)."""
        return self._capacity

    @property
    def table(self) -> Table:
        """The live rows as a table of ``int64`` columns (views, not copies).

        Built on first use after an append, so its columns' cached bounds
        and the executor over it serve every read until the next append.
        """
        return self._scanner().table

    def _scanner(self) -> ScanExecutor:
        """The executor over :attr:`table`, rebuilt after an append."""
        if self._executor is None:
            view = Table(
                "pending",
                [Column(name, self._data[name][: self._size], narrow=False) for name in self._names],
            )
            self._executor = ScanExecutor(view)
        return self._executor

    # -- appends -----------------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name, storage in self._data.items():
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = storage[: self._size]
            self._data[name] = grown
        self._capacity = capacity

    def append_many(self, columns: Mapping[str, np.ndarray]) -> int:
        """Append equal-length storage-domain arrays, one per column.

        A single slice assignment per column, with capacity grown at most
        once.  Returns the number of rows appended.
        """
        missing = [name for name in self._names if name not in columns]
        if missing:
            raise SchemaError(f"append_many is missing values for columns {missing}")
        arrays: dict[str, np.ndarray] = {}
        length: int | None = None
        for name in self._names:
            array = np.asarray(columns[name], dtype=np.int64)
            if array.ndim != 1:
                raise SchemaError(
                    f"append_many values for column {name!r} must be 1-dimensional"
                )
            if length is None:
                length = int(array.shape[0])
            elif int(array.shape[0]) != length:
                raise SchemaError(
                    f"append_many column lengths differ: {name!r} has "
                    f"{array.shape[0]} values, expected {length}"
                )
            arrays[name] = array
        if not length:
            return 0
        self._ensure_capacity(length)
        start = self._size
        for name in self._names:
            self._data[name][start : start + length] = arrays[name]
        self._size += length
        self._executor = None
        return length

    def clear(self) -> None:
        """Drop every buffered row and shrink back to the minimum allocation."""
        self._size = 0
        self._executor = None
        if self._capacity > MIN_BUFFER_CAPACITY:
            self._capacity = MIN_BUFFER_CAPACITY
            self._data = {
                name: np.empty(self._capacity, dtype=np.int64) for name in self._names
            }

    # -- scans --------------------------------------------------------------------

    def scan(self, query: Query) -> QueryResult:
        """Answer ``query`` over the pending rows, scanned as one row range.

        The buffer is staging storage and stays ``int64``, so the scan
        charges 8 bytes per value read; an empty buffer scans no range.
        """
        value, stats = self._scanner().execute(
            [RowRange(0, self._size)],
            query.filters(),
            query.aggregate,
            query.aggregate_column,
        )
        return QueryResult(value=value, stats=stats)

    def size_bytes(self) -> int:
        """Logical footprint of the buffered values (8 bytes per live value)."""
        return 8 * self._size * len(self._names)


class DeltaBufferedIndex:
    """A clustered index plus an insert buffer that is periodically merged.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a fresh instance of the wrapped
        index; used for the initial build and for every merge-triggered
        rebuild.
    merge_threshold:
        Number of buffered rows at which inserts trigger an automatic merge.
        ``0`` merges after every insert call; use a large value to manage
        merges manually via :meth:`merge`.
    merge_strategy:
        ``"local"`` (default) reorganizes only the Grid Tree regions whose
        rows changed when the wrapped index supports it, falling back to the
        global rebuild otherwise; ``"rebuild"`` always rebuilds the whole
        wrapped index (the pre-localized behavior, kept as an escape hatch
        and differential-testing oracle).
    """

    name = "delta-buffered"

    def __init__(
        self,
        index_factory: IndexFactory,
        merge_threshold: int = 10_000,
        *,
        merge_strategy: str = "local",
    ) -> None:
        if merge_threshold < 0:
            raise ValueError(f"merge_threshold must be >= 0, got {merge_threshold}")
        if merge_strategy not in MERGE_STRATEGIES:
            raise ValueError(
                f"merge_strategy must be one of {MERGE_STRATEGIES}, "
                f"got {merge_strategy!r}"
            )
        self._index_factory = index_factory
        self.merge_threshold = merge_threshold
        self.merge_strategy = merge_strategy
        self._index: ClusteredIndex | None = None
        self._workload: Workload | None = None
        self._buffer: DeltaBuffer | None = None
        self._merges: list[MergeReport] = []

    # -- build ----------------------------------------------------------------------

    def build(self, table: Table, workload: Workload | None = None) -> "DeltaBufferedIndex":
        """Build the wrapped index over ``table`` (optionally workload-optimized)."""
        self._index = self._index_factory()
        self._index.build(table, workload)
        self._workload = workload
        self._buffer = DeltaBuffer(table.column_names)
        return self

    def _require_built(self) -> ClusteredIndex:
        if self._index is None or not self._index.is_built:
            raise IndexBuildError("DeltaBufferedIndex has not been built yet")
        return self._index

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed (serving-contract parity)."""
        return self._index is not None and self._index.is_built

    @property
    def table(self) -> Table:
        """The main index's clustered table (pending inserts live in the buffer)."""
        return self._require_built().table

    # -- inserts ----------------------------------------------------------------------

    @property
    def base_index(self) -> ClusteredIndex:
        """The wrapped clustered index (rebuilt on every merge)."""
        return self._require_built()

    @property
    def buffer(self) -> DeltaBuffer:
        """The columnar insert buffer (reset on every merge)."""
        self._require_built()
        assert self._buffer is not None
        return self._buffer

    @property
    def workload(self) -> Workload | None:
        """The workload merges rebuild the main index for."""
        return self._workload

    @workload.setter
    def workload(self, workload: Workload | None) -> None:
        """Advance the rebuild workload (e.g. after drift-triggered re-optimization)."""
        self._workload = workload

    @property
    def num_pending(self) -> int:
        """Number of inserted rows not yet merged into the main index."""
        return len(self._buffer) if self._buffer is not None else 0

    @property
    def num_rows(self) -> int:
        """Total rows visible to queries (main table plus pending inserts)."""
        return self._require_built().table.num_rows + self.num_pending

    def insert(self, row: Mapping[str, object]) -> None:
        """Insert one ``{column: user-facing value}`` row: an :meth:`insert_many` of one."""
        self.insert_many([row])

    def insert_many(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Insert rows given as ``{column: user-facing value}`` mappings.

        All rows are schema-checked and converted column-by-column (one numpy
        conversion per column, through each column's existing encoding)
        before anything is buffered, so a bad value rejects the whole call
        with :class:`~repro.common.errors.SchemaError` and buffers nothing.
        A categorical value not present in the column's dictionary is
        rejected (extending dictionaries online is out of scope for this
        extension and the paper's).  The rows are then buffered by
        :meth:`insert_encoded`.
        """
        rows = list(rows)
        if rows:
            self.insert_encoded(self.table.encode_rows(rows))

    def insert_encoded(self, columns: Mapping[str, np.ndarray]) -> None:
        """Buffer rows given as storage-domain arrays, one per column.

        ``columns`` is what :meth:`~repro.storage.table.Table.encode_rows`
        returns; a sharded index encodes a batch once and hands each shard
        its slice.  Rows are appended in merge-threshold-sized chunks so the
        automatic merge cadence matches a per-row insert loop.  An automatic
        merge that fails does not fail the write: it is recorded in
        :attr:`merge_history`, the rest of the batch is buffered with no
        second attempt in this call, and the next threshold crossing retries.
        """
        self._require_built()
        assert self._buffer is not None
        total = len(next(iter(columns.values())))
        offset = 0
        merging = True
        while offset < total:
            chunk = total - offset
            if merging and self.merge_threshold > 0:
                room = self.merge_threshold - self.num_pending
                chunk = min(chunk, max(room, 1))
            self._buffer.append_many(
                {name: array[offset : offset + chunk] for name, array in columns.items()}
            )
            offset += chunk
            if merging and self.num_pending >= self.merge_threshold:
                try:
                    self.merge()
                except Exception:
                    merging = False  # recorded in the history; rows stay buffered

    # -- merging ----------------------------------------------------------------------

    def merge(self) -> MergeReport | None:
        """Fold every pending insert into the table via ``merge_strategy``.

        Returns the merge report, or ``None`` if the buffer was empty.  With
        ``merge_strategy="local"`` and a wrapped index that supports it, only
        the regions whose rows changed are reorganized (see
        :mod:`repro.core.local_merge`); otherwise the whole wrapped index is
        rebuilt.  Every attempt is appended to :attr:`merge_history`.  A
        merge that fails mid-way is recorded with its ``error`` and re-raised,
        and leaves the index serving the old table with the buffer intact.
        """
        index = self._require_built()
        assert self._buffer is not None
        pending = self.num_pending
        if pending == 0:
            return None
        strategy = "local" if self.merge_strategy == "local" and supports_local_merge(index) else "rebuild"
        touched = total = None
        start = time.perf_counter()
        try:
            faults.trigger("delta.merge")
            if strategy == "local":
                outcome = local_merge(index, self._buffer.table)
                touched, total = outcome.regions_touched, outcome.regions_total
            else:
                self._index = self._rebuilt(index)
        except Exception as exc:
            failed = MergeReport(
                rows_merged=0,
                rebuild_seconds=time.perf_counter() - start,
                total_rows=index.table.num_rows,
                strategy=strategy,
                error=repr(exc),
            )
            self._merges.append(failed)
            raise
        report = MergeReport(
            rows_merged=pending,
            rebuild_seconds=time.perf_counter() - start,
            total_rows=self._index.table.num_rows,
            strategy=strategy,
            regions_touched=touched,
            regions_total=total,
        )
        self._buffer = DeltaBuffer(index.table.column_names)
        self._merges.append(report)
        return report

    def _rebuilt(self, index: ClusteredIndex) -> ClusteredIndex:
        """The global path: a new wrapped index over the table plus the buffer.

        The replacement is built fully before :meth:`merge` installs it, so a
        rebuild that fails (or is fault-injected) leaves the index serving
        the old table with the buffer intact, not half-replaced.
        """
        assert self._buffer is not None
        merged_table = Table.concat(index.table.name, [index.table, self._buffer.table])
        rebuilt = self._index_factory()
        rebuilt.build(merged_table, self._workload)
        return rebuilt

    @property
    def merge_history(self) -> list[MergeReport]:
        """Every merge attempted so far, in order; a failed one has an ``error``."""
        return list(self._merges)

    # -- queries ----------------------------------------------------------------------

    def execute(self, query: Query) -> QueryResult:
        """Answer ``query`` over the main index plus the delta buffer: a batch of one."""
        return self.execute_batch([query])[0]

    def execute_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries through the wrapped index's batched pipeline.

        The batch is deduped into distinct templates; the main index answers
        them in one batch (sharing grid-tree routing and plan-cache lookups),
        each running the :func:`~repro.baselines.base.avg_as_sum` rewrite so
        ``avg`` gets its sum and matched-row count from one pass.  The buffer
        runs the same rewritten query once per distinct template, and the two
        partials are recombined per aggregate the way a sharded index
        recombines its shards', in input order.
        """
        index = self._require_built()
        assert self._buffer is not None
        queries = list(queries)
        if not queries:
            return []
        distinct, order = dedupe_queries(queries)
        rewritten = [avg_as_sum(query) for query in distinct]
        main_results = index.execute_batch(rewritten)
        combined = [
            combine_partial_results(
                query.aggregate, [partial_of(main), partial_of(self._buffer.scan(partial))]
            )
            for query, partial, main in zip(distinct, rewritten, main_results)
        ]
        return expand_deduped_results(combined, order)

    def execute_workload(self, workload: Workload) -> tuple[list[QueryResult], ScanStats]:
        """Execute every query in ``workload`` and return results plus total work."""
        return serve_workload(self, workload)

    # -- reporting --------------------------------------------------------------------

    def explain(self, query: Query) -> dict:
        """The wrapped index's plan for ``query``, extended with the buffer scan.

        Every pending insert is scanned (one extra contiguous "range"), so the
        row counts and scanned fraction include the buffer.
        """
        index = self._require_built()
        plan = dict(index.explain(query))
        pending = self.num_pending
        plan["index"] = f"{self.name}({plan['index']})"
        plan["pending_inserts"] = pending
        if pending:
            plan["cell_ranges"] += 1
            plan["rows_to_scan"] += pending
        plan["table_fraction_scanned"] = plan["rows_to_scan"] / max(self.num_rows, 1)
        plan["merge_strategy"] = self.merge_strategy
        if self._merges:
            plan["last_merge"] = self._merges[-1].as_dict()
        return plan

    def index_size_bytes(self) -> int:
        """Main index size plus the delta buffer (8 bytes per buffered value)."""
        buffered = self._buffer.size_bytes() if self._buffer is not None else 0
        return self._require_built().index_size_bytes() + buffered

    def describe(self) -> dict:
        """Structural statistics of the wrapper and the current main index."""
        info = {
            "name": self.name,
            "pending_inserts": self.num_pending,
            "merge_threshold": self.merge_threshold,
            "merge_strategy": self.merge_strategy,
            "num_merges": sum(report.error is None for report in self._merges),
            "total_rows": self.num_rows,
            "base_index": self._require_built().describe(),
        }
        if self._merges:
            info["last_merge"] = self._merges[-1].as_dict()
        return info
