"""Contiguous range scans over the clustered column store.

Every index in the reproduction answers a query by producing a set of
contiguous physical row ranges (*cell ranges* in the paper's terminology) and
delegating the actual scan to this module.  The executor implements the
paper's single scan-time optimization (§6.1): when a range is known ahead of
time to contain only matching rows (an *exact* range), per-value filter checks
are skipped, and for COUNT aggregations the underlying data is not touched at
all.

The executor also records machine-independent work counters
(:class:`ScanStats`) that the cost model and the benchmark harness use in
place of raw wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.common.records import Record
from repro.storage.kernels import fused_count, fused_max, fused_min, fused_sum
from repro.storage.table import Table


@dataclass(frozen=True, slots=True)
class RowRange:
    """A contiguous physical row range ``[start, stop)``.

    ``exact`` marks ranges whose rows are all guaranteed to satisfy the query
    filter, which enables the scan-time optimization described in §6.1.
    """

    start: int
    stop: int
    exact: bool = False

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise QueryError(f"invalid row range [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass
class ScanStats(Record):
    """Machine-independent accounting of the work done by one or more scans.

    ``values_scanned`` counts individual cell values logically read (filter
    columns per inexact range, plus the aggregate column when one is read);
    ``bytes_scanned`` weighs the same reads by each column's storage dtype, so
    an all-``int64`` table scans exactly ``8 * values_scanned`` bytes and any
    smaller ratio is the narrow-dtype win.
    """

    points_scanned: int = 0
    cell_ranges: int = 0
    rows_matched: int = 0
    dims_accessed: int = 0
    values_scanned: int = 0
    bytes_scanned: int = 0

    def merge(self, other: "ScanStats") -> "ScanStats":
        """Accumulate another stats object into this one (in place)."""
        self.points_scanned += other.points_scanned
        self.cell_ranges += other.cell_ranges
        self.rows_matched += other.rows_matched
        self.dims_accessed += other.dims_accessed
        self.values_scanned += other.values_scanned
        self.bytes_scanned += other.bytes_scanned
        return self

    def copy(self) -> "ScanStats":
        """An independent copy (batch paths hand out one per query)."""
        return ScanStats(
            points_scanned=self.points_scanned,
            cell_ranges=self.cell_ranges,
            rows_matched=self.rows_matched,
            dims_accessed=self.dims_accessed,
            values_scanned=self.values_scanned,
            bytes_scanned=self.bytes_scanned,
        )

    @property
    def scan_work(self) -> int:
        """The cost-model scan term: points scanned times filtered dimensions."""
        return self.points_scanned * max(self.dims_accessed, 1)


def coalesce_ranges(ranges: Iterable[RowRange]) -> list[RowRange]:
    """Merge adjacent or overlapping row ranges into maximal contiguous runs.

    Adjacent ranges are only merged when they agree on ``exact``: merging an
    exact range into an inexact one would either lose the optimization or
    wrongly extend it.

    Planners emit ranges already ordered by ``(start, stop)``, so the common
    case skips the sort entirely.
    """
    ordered = ranges if isinstance(ranges, list) else list(ranges)
    previous: RowRange | None = None
    for current in ordered:
        if previous is not None and (
            current.start < previous.start
            or (current.start == previous.start and current.stop < previous.stop)
        ):
            ordered = sorted(ordered, key=lambda r: (r.start, r.stop))
            break
        previous = current
    merged: list[RowRange] = []
    for current in ordered:
        if len(current) == 0:
            continue
        if merged and current.start <= merged[-1].stop and current.exact == merged[-1].exact:
            previous = merged[-1]
            merged[-1] = RowRange(
                previous.start, max(previous.stop, current.stop), exact=previous.exact
            )
        else:
            merged.append(current)
    return merged


def _gather(values: np.ndarray, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """``values`` over ``ranges``, concatenated (a lone range is a view)."""
    if len(ranges) == 1:
        start, stop = ranges[0]
        return values[start:stop]
    return np.concatenate([values[start:stop] for start, stop in ranges])


class ScanExecutor:
    """Evaluates filter predicates and aggregations over physical row ranges.

    A query's ranges are coalesced, then scanned in one pass: exact ranges
    are counted without reading a value, and all inexact ranges are filtered
    together, one concatenated slice and one pair of comparisons per
    filtered column.  Sums and extremes run the fused kernels range by range,
    each inexact range under its slice of that one mask.
    """

    def __init__(self, table: Table) -> None:
        self._table = table
        self._itemsizes: dict[str, int] = {}

    @property
    def table(self) -> Table:
        """The clustered table this executor scans."""
        return self._table

    def _itemsize(self, dim: str) -> int:
        """Bytes per stored value of ``dim`` (dtype is fixed per column)."""
        size = self._itemsizes.get(dim)
        if size is None:
            size = self._table.column(dim).itemsize
            self._itemsizes[dim] = size
        return size

    def execute(
        self,
        ranges: Sequence[RowRange],
        filters: Mapping[str, tuple[int, int]],
        aggregate: str = "count",
        aggregate_column: str | None = None,
    ) -> tuple[float, ScanStats]:
        """Scan ``ranges``, apply ``filters``, and compute an aggregation.

        Parameters
        ----------
        ranges:
            Physical row ranges to scan (typically produced by an index).
        filters:
            ``{dimension: (low, high)}`` inclusive bounds in storage units.
        aggregate:
            One of ``count``, ``sum``, ``avg``, ``min``, ``max``.
        aggregate_column:
            Column to aggregate; required for everything except ``count``.

        Returns
        -------
        (result, stats):
            The aggregate value and the work counters for this query.
        """
        self._validate_aggregate(aggregate, aggregate_column)
        merged = coalesce_ranges(ranges)
        return self._execute_merged(merged, filters, aggregate, aggregate_column)

    def _validate_aggregate(self, aggregate: str, aggregate_column: str | None) -> None:
        if aggregate not in {"count", "sum", "avg", "min", "max"}:
            raise QueryError(f"unsupported aggregate {aggregate!r}")
        if aggregate != "count" and aggregate_column is None:
            raise QueryError(f"aggregate {aggregate!r} requires aggregate_column")
        if aggregate_column is not None and aggregate_column not in self._table:
            raise QueryError(
                f"aggregate column {aggregate_column!r} does not exist in table "
                f"{self._table.name!r}"
            )

    def _execute_merged(
        self,
        merged: Sequence[RowRange],
        filters: Mapping[str, tuple[int, int]],
        aggregate: str,
        aggregate_column: str | None,
    ) -> tuple[float, ScanStats]:
        """Scan already-coalesced ranges: one filter pass over all inexact ones.

        Each filtered column's inexact slices are concatenated once (a lone
        slice is used as is) and compared against its bounds once, so a
        query costs one mask and one ``count_nonzero`` however many ranges
        it has.  Other aggregates then walk the ranges in order, reducing
        each inexact one under its slice of that mask, so answers are those
        of a range-by-range scan.
        """
        num_rows = self._table.num_rows
        exact_rows = 0
        inexact: list[tuple[int, int]] = []
        for row_range in merged:
            start, stop = row_range.start, row_range.stop
            if stop > num_rows:
                raise QueryError(f"row range [{start}, {stop}) exceeds table size {num_rows}")
            if row_range.exact:
                exact_rows += stop - start
            else:
                inexact.append((start, stop))
        inexact_rows = sum(stop - start for start, stop in inexact)
        mask = self._matches(inexact, filters)
        matched = inexact_rows if mask is None else fused_count(mask)
        stats = ScanStats(
            points_scanned=inexact_rows,
            cell_ranges=len(merged),
            rows_matched=exact_rows + matched,
            dims_accessed=len(filters),
            values_scanned=inexact_rows * len(filters),
            bytes_scanned=inexact_rows * sum(self._itemsize(dim) for dim in filters),
        )
        if aggregate == "count":
            return float(stats.rows_matched), stats
        stats.points_scanned += exact_rows
        column = self._table.column(aggregate_column).values
        itemsize = self._itemsize(aggregate_column)
        total = 0.0
        minimum: float | None = None
        maximum: float | None = None
        offset = 0  # where the next inexact range starts in ``mask``
        for row_range in merged:
            start, stop = row_range.start, row_range.stop
            length = stop - start
            # Exact ranges skip per-value filter checks entirely.
            selected = None
            if not row_range.exact and mask is not None:
                selected = mask[offset : offset + length]
                offset += length
                if fused_count(selected) == 0:
                    continue
            # Fused aggregation: reduce over the whole slice under the mask
            # instead of materializing ``values[mask]``.
            values = column[start:stop]
            stats.values_scanned += length
            stats.bytes_scanned += length * itemsize
            if aggregate in {"sum", "avg"}:
                total += float(fused_sum(values, selected))
            if aggregate == "min":
                candidate = float(fused_min(values, selected))
                minimum = candidate if minimum is None else min(minimum, candidate)
            if aggregate == "max":
                candidate = float(fused_max(values, selected))
                maximum = candidate if maximum is None else max(maximum, candidate)

        if aggregate == "sum":
            return total, stats
        if aggregate == "avg":
            return (total / stats.rows_matched) if stats.rows_matched else float("nan"), stats
        if aggregate == "min":
            return minimum if minimum is not None else float("nan"), stats
        return maximum if maximum is not None else float("nan"), stats

    def _matches(
        self, inexact: Sequence[tuple[int, int]], filters: Mapping[str, tuple[int, int]]
    ) -> np.ndarray | None:
        """Which rows of the concatenated ``inexact`` ranges match every filter.

        ``None`` when nothing is checked: no inexact range, or no filter.
        """
        if not inexact or not filters:
            return None
        mask = None
        for dim, (low, high) in filters.items():
            values = _gather(self._table.column(dim).values, inexact)
            check = values >= low
            check &= values <= high
            if mask is None:
                mask = check
            else:
                mask &= check
        return mask

    def execute_batch(
        self,
        ranges_per_query: Sequence[Sequence[RowRange]],
        filters_per_query: Sequence[Mapping[str, tuple[int, int]]],
        aggregates: Sequence[str] | str = "count",
        aggregate_columns: Sequence[str | None] | str | None = None,
    ) -> list[tuple[float, ScanStats]]:
        """Execute a batch of queries, one :meth:`execute` call per query.

        Results are returned in input order, each with its own
        :class:`ScanStats`.
        """
        if len(ranges_per_query) != len(filters_per_query):
            raise QueryError(
                "execute_batch needs one filter mapping per range list "
                f"({len(ranges_per_query)} != {len(filters_per_query)})"
            )
        num_queries = len(ranges_per_query)
        if isinstance(aggregates, str):
            aggregates = [aggregates] * num_queries
        if aggregate_columns is None or isinstance(aggregate_columns, str):
            aggregate_columns = [aggregate_columns] * num_queries
        if len(aggregates) != num_queries or len(aggregate_columns) != num_queries:
            raise QueryError("aggregate specs must match the number of queries")
        return [
            self.execute(ranges, filters, aggregate, aggregate_column)
            for ranges, filters, aggregate, aggregate_column in zip(
                ranges_per_query, filters_per_query, aggregates, aggregate_columns
            )
        ]
