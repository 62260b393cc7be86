"""Query execution entry points.

:func:`execute_full_scan` is the reference execution without any index, used
as the ground-truth oracle in tests and as the implicit "no index" baseline:
every index's answer to every query must equal the full-scan answer.

:class:`QueryEngine` is the serving-path front door: it wraps a built index
and exposes single-query and batched execution.  An index-less engine is
``QueryEngine(FullScanIndex().build(table))``.
Every index has one query path, the batched pipeline: it dedupes repeated
queries and shares grid-tree routing and plan-cache lookups across the
queries of one batch, then scans each distinct query on its own.  A single
query is a batch of one.

The engine accepts anything implementing the serving contract — ``is_built``,
``table``, ``execute``, ``execute_batch``, and ``explain`` — which every
:class:`~repro.baselines.base.ClusteredIndex` provides and which
:class:`~repro.core.delta.DeltaBufferedIndex` implements as a wrapper, so an
updatable index with pending inserts serves through the same batched fast
path as a read-only one.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import QueryError
from repro.query.query import Query
from repro.storage.scan import RowRange, ScanExecutor, ScanStats
from repro.storage.table import Table


def execute_full_scan(
    table: Table, query: Query, executor: ScanExecutor | None = None
) -> tuple[float, ScanStats]:
    """Answer ``query`` by scanning the entire table.

    Returns the aggregate value and the scan work counters, exactly as an
    index-backed execution would, so results are directly comparable.
    ``executor`` lets a caller that scans the same table repeatedly reuse
    one executor instead of allocating per call.
    """
    if executor is None:
        executor = ScanExecutor(table)
    full_range = [RowRange(0, table.num_rows, exact=False)]
    return executor.execute(
        full_range,
        query.filters(),
        aggregate=query.aggregate,
        aggregate_column=query.aggregate_column,
    )


class QueryEngine:
    """Executes queries through a built index, with a batched fast path.

    Parameters
    ----------
    index:
        A built index implementing the serving contract (any
        :class:`~repro.baselines.base.ClusteredIndex`, or the updatable
        :class:`~repro.core.delta.DeltaBufferedIndex` wrapper).
    """

    def __init__(self, index) -> None:
        if not index.is_built:
            raise QueryError(f"index {index.name!r} has not been built yet")
        self._index = index

    @property
    def table(self) -> Table:
        """The table queries run against.

        Delegates to the index: an updatable index replaces its table object
        on merge, so caching it here would go stale after the first
        auto-merge.
        """
        return self._index.table

    def run(self, query: Query):
        """Answer one query; returns a ``QueryResult``."""
        return self._index.execute(query)

    def run_batch(self, queries: Sequence[Query]):
        """Answer ``queries`` as one index batch, in input order.

        The batch shares its dedup and routing; a caller that wants smaller
        batches slices the sequence itself.  Results are identical to
        calling :meth:`run` per query.
        """
        return self._index.execute_batch(list(queries))

    def insert(self, row) -> None:
        """Insert one row through an updatable index (delta or sharded)."""
        self.insert_many([row])

    def insert_many(self, rows: Sequence) -> None:
        """Insert rows through an updatable index.

        Delegates to the wrapped index's vectorized ``insert_many`` (the
        delta buffer's columnar path, or the sharded router); raises
        :class:`QueryError` when the index does not support inserts.
        """
        insert = getattr(self._index, "insert_many", None)
        if insert is None:
            raise QueryError(
                f"index {self._index.name!r} does not support inserts; wrap it in a "
                "DeltaBufferedIndex or use updatable shards"
            )
        insert(rows)

    def close(self) -> None:
        """Release index resources (e.g. a sharded index's worker pool).

        Indexes without a ``close`` are left untouched; the engine itself
        remains usable.  Idempotent, and also available as a context manager.
        """
        close = getattr(self._index, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explain(self, query: Query) -> dict:
        """Describe how ``query`` would be answered without executing it."""
        return self._index.explain(query)
