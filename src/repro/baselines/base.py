"""The clustered-index contract shared by every index in the reproduction.

The paper's indexes are all *clustered*: the index owns the physical row order
of the underlying column store, answers a query by identifying contiguous row
ranges to scan, and delegates the scan to the column store.  This module
defines that contract (:class:`ClusteredIndex`) and the per-query result
object (:class:`QueryResult`), so the benchmark harness can treat Tsunami,
Flood, and the non-learned baselines uniformly.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import IndexBuildError, QueryError
from repro.common.records import Record
from repro.query.query import AGGREGATES, Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange, ScanExecutor, ScanStats, coalesce_ranges
from repro.storage.table import Table


@dataclass(frozen=True)
class QueryResult:
    """The outcome of executing one query through an index."""

    value: float
    stats: ScanStats


@dataclass
class BuildReport(Record):
    """Timing and bookkeeping recorded while building an index.

    ``sort_seconds`` is the time spent physically reorganizing the table
    (every index pays this): computing the clustered layout's permutation
    (``_layout_permutation``: a Tsunami index fits every region's grid there,
    a k-d tree builds its whole tree), applying it, and building the lookup
    structures over the final order.  ``optimize_seconds`` is the extra
    layout optimization time paid only by the learned indexes (Fig. 9b
    separates the two).
    """

    sort_seconds: float = 0.0
    optimize_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total build time."""
        return self.sort_seconds + self.optimize_seconds


@dataclass(frozen=True)
class PartialAggregate:
    """One execution's contribution to a recombined aggregate.

    Wrappers that split a query across several executions — the delta buffer's
    main-index-plus-buffer split, the sharded index's per-shard fan-out —
    produce one partial per execution and recombine them with
    :func:`combine_partial_results`.

    ``value`` carries the aggregate-specific piece: the count for ``count``,
    the partial sum for ``sum`` *and* ``avg`` (averages cannot be combined
    from averages), and the partial extreme (``NaN`` when the execution
    matched no rows) for ``min``/``max``.  ``matched`` is the number of rows
    the execution matched, which is the denominator the ``avg`` recombination
    needs.
    """

    value: float
    matched: int
    stats: ScanStats


def avg_as_sum(query: Query) -> Query:
    """The query a partial execution runs in place of an ``avg`` query.

    ``avg`` cannot be combined from two averages, so each partial execution
    runs the corresponding ``sum`` query instead; its scan counts the matching
    rows as a side effect (``ScanStats.rows_matched``), which is exactly the
    count the recombination needs — one pass per partial, not two.
    """
    if query.aggregate != "avg":
        return query
    return Query(
        predicates=query.predicates,
        aggregate="sum",
        aggregate_column=query.aggregate_column,
        query_type=query.query_type,
    )


def partial_of(result: QueryResult) -> PartialAggregate:
    """A partial execution's result as a recombinable partial.

    The execution ran the :func:`avg_as_sum` rewrite, so for ``avg`` its
    value is the partial sum and its ``rows_matched`` the denominator.
    """
    return PartialAggregate(
        value=result.value, matched=result.stats.rows_matched, stats=result.stats
    )


def combine_partial_results(
    aggregate: str, partials: Sequence[PartialAggregate]
) -> QueryResult:
    """Recombine per-execution partials into one result, per aggregate.

    With no partials (every execution pruned) or no matched rows, the value
    matches what a single scan over an empty selection returns: ``0`` for
    ``count``/``sum``, ``NaN`` for ``avg``/``min``/``max``.  Stats are merged
    across the partials in order, so recombined work counters equal the sum
    of the per-execution counters.
    """
    if aggregate not in AGGREGATES:
        raise QueryError(f"unsupported aggregate {aggregate!r}")
    stats = ScanStats()
    for partial in partials:
        stats.merge(partial.stats)
    if aggregate in ("count", "sum"):
        value = 0.0
        for partial in partials:
            value += partial.value
        return QueryResult(value=value, stats=stats)
    if aggregate == "avg":
        # Each partial executed the rewritten sum query (see avg_as_sum), so
        # its value is a partial sum and its matched count the denominator.
        total_sum = 0.0
        total_count = 0
        for partial in partials:
            total_sum += partial.value
            total_count += partial.matched
        value = total_sum / total_count if total_count else float("nan")
        return QueryResult(value=value, stats=stats)
    # min / max: combine, treating NaN as "no rows in that execution".
    candidates = [p.value for p in partials if not np.isnan(p.value)]
    if not candidates:
        return QueryResult(value=float("nan"), stats=stats)
    combined = min(candidates) if aggregate == "min" else max(candidates)
    return QueryResult(value=combined, stats=stats)


def dedupe_queries(queries: Sequence[Query]) -> tuple[list[Query], list[int]]:
    """Collapse repeated query templates ahead of batch execution.

    Queries are hashable value objects, so skewed workloads that repeat a
    small set of templates can be planned and scanned once per distinct
    template.  Returns the distinct queries in first-seen order plus, for
    every input query, its position in the distinct list (used to expand the
    per-template results back to input order).
    """
    positions: dict[Query, int] = {}
    distinct: list[Query] = []
    order: list[int] = []
    for query in queries:
        position = positions.get(query)
        if position is None:
            position = len(distinct)
            positions[query] = position
            distinct.append(query)
        order.append(position)
    return distinct, order


def expand_deduped_results(
    results: Sequence[QueryResult], order: Sequence[int]
) -> list[QueryResult]:
    """Expand per-distinct-template results back to input order.

    The inverse of :func:`dedupe_queries`: every input query gets the value
    computed for its template plus an independent :class:`ScanStats` copy (a
    duplicated query still reports its full logical work).
    """
    return [
        QueryResult(value=results[position].value, stats=results[position].stats.copy())
        for position in order
    ]


def serve_workload(index, workload: Workload) -> tuple[list[QueryResult], ScanStats]:
    """Execute every query in ``workload`` through ``index.execute``.

    Returns the per-query results plus the merged work counters; shared by
    every implementation of the serving contract's ``execute_workload``.
    """
    results = []
    total = ScanStats()
    for query in workload:
        result = index.execute(query)
        results.append(result)
        total.merge(result.stats)
    return results, total


class ClusteredIndex(ABC):
    """Abstract base class for clustered multi-dimensional indexes."""

    #: Human-readable name used in benchmark reports.
    name: str = "index"

    def __init__(self) -> None:
        self._table: Table | None = None
        self._executor: ScanExecutor | None = None
        self.build_report = BuildReport()

    # -- template method -------------------------------------------------------

    def build(self, table: Table, workload: Workload | None = None) -> "ClusteredIndex":
        """Build the index over ``table``, optionally optimizing for ``workload``.

        The table is physically reorganized (clustered) according to the
        layout the index chooses.  Returns ``self`` for chaining.
        """
        if table.num_rows == 0:
            raise IndexBuildError(f"cannot build {self.name} over an empty table")
        self._table = table
        optimize_start = time.perf_counter()
        self._optimize(table, workload)
        sort_start = time.perf_counter()
        permutation = self._layout_permutation(table)
        if permutation is not None:
            table.reorder(np.asarray(permutation))
        self._finalize(table)
        sort_end = time.perf_counter()
        self.build_report.optimize_seconds = sort_start - optimize_start
        self.build_report.sort_seconds = sort_end - sort_start
        self._executor = ScanExecutor(table)
        return self

    # -- hooks for subclasses -----------------------------------------------------

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        """Choose layout parameters (learned indexes override this)."""

    @abstractmethod
    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        """Return the permutation that clusters the table, or ``None`` to keep order."""

    def _finalize(self, table: Table) -> None:
        """Build lookup structures that depend on the final physical order."""

    @abstractmethod
    def _ranges_for_query(self, query: Query) -> Sequence[RowRange]:
        """Return the physical row ranges that must be scanned for ``query``."""

    def _ranges_for_queries(self, queries: Sequence[Query]) -> list[Sequence[RowRange]]:
        """Row ranges for a batch of queries; indexes may override to share work."""
        return [self._ranges_for_query(query) for query in queries]

    # -- public API ------------------------------------------------------------------

    @property
    def table(self) -> Table:
        """The clustered table this index was built over."""
        if self._table is None:
            raise IndexBuildError(f"{self.name} has not been built yet")
        return self._table

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._table is not None and self._executor is not None

    def execute(self, query: Query) -> QueryResult:
        """Answer ``query``: a batch of one through :meth:`execute_batch`."""
        return self.execute_batch([query])[0]

    def execute_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Answer a batch of queries, sharing planning work.

        This is the one query path; :meth:`execute` is a batch of one.
        Results are returned in input order, each with its aggregate value
        and its own work counters, and do not depend on how queries are
        grouped into batches.  Identical queries (skewed workloads repeat a
        small set of templates) are planned and scanned once per batch; the
        distinct remainder shares grid-tree routing (where the index overrides
        :meth:`_ranges_for_queries`) and is then scanned query by query.
        """
        if self._executor is None:
            raise IndexBuildError(f"{self.name} has not been built yet")
        queries = list(queries)
        if not queries:
            return []
        distinct, order = dedupe_queries(queries)
        ranges_per_query = self._ranges_for_queries(distinct)
        outcomes = self._executor.execute_batch(
            ranges_per_query,
            [query.filters() for query in distinct],
            [query.aggregate for query in distinct],
            [query.aggregate_column for query in distinct],
        )
        return [
            QueryResult(value=outcomes[position][0], stats=outcomes[position][1].copy())
            for position in order
        ]

    def execute_workload(self, workload: Workload) -> tuple[list[QueryResult], ScanStats]:
        """Execute every query in ``workload`` and return results plus total work."""
        return serve_workload(self, workload)

    def explain(self, query: Query) -> dict:
        """Describe how this index would answer ``query`` without executing it.

        Returns the query's physical plan as counters: how many contiguous
        cell ranges would be visited, how many rows they contain, how many of
        those rows sit in *exact* ranges (scanned without per-value filter
        checks, §6.1), and the fraction of the table touched.  Useful for
        debugging layouts and for the examples' EXPLAIN-style output.
        """
        if self._executor is None:
            raise IndexBuildError(f"{self.name} has not been built yet")
        ranges = coalesce_ranges(self._ranges_for_query(query))
        rows_to_scan = sum(len(row_range) for row_range in ranges)
        exact_rows = sum(len(row_range) for row_range in ranges if row_range.exact)
        total_rows = max(self.table.num_rows, 1)
        return {
            "index": self.name,
            "filtered_dimensions": list(query.filtered_dimensions),
            "aggregate": query.aggregate,
            "cell_ranges": len(ranges),
            "rows_to_scan": rows_to_scan,
            "exact_rows": exact_rows,
            "table_fraction_scanned": rows_to_scan / total_rows,
        }

    @abstractmethod
    def index_size_bytes(self) -> int:
        """Approximate memory footprint of the index structure (excluding data)."""

    def describe(self) -> dict:
        """Structural statistics for reports; subclasses extend this."""
        return {"name": self.name, "size_bytes": self.index_size_bytes()}


def containment_exactness(
    cell_bounds: dict[str, tuple[int, int]], query: Query
) -> bool:
    """Whether a cell's bounding box is fully contained in the query rectangle.

    When true, every row in the cell matches the query filter and the scan can
    use the exact-range optimization (§6.1).  Dimensions the query does not
    filter are unconstrained and therefore always contained.
    """
    for predicate in query.predicates:
        bounds = cell_bounds.get(predicate.dimension)
        if bounds is None:
            # The cell places no constraint on this dimension, so rows inside
            # it may or may not match the predicate; containment fails.
            return False
        low, high = bounds
        if low < predicate.low or high > predicate.high:
            return False
    return True
