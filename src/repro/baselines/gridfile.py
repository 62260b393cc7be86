"""Grid File baseline (Nievergelt et al. [31], discussed in §6.1 and §7).

The Grid File partitions each indexed dimension independently with its own
*scale* (a list of split points) and keeps a directory mapping every grid cell
to a data bucket.  The paper excludes it from the headline comparison because
Flood already dominates it, but it is the closest non-learned relative of the
grid-based learned indexes, which makes it a useful extra baseline for the
extended benchmarks in this repository.

This implementation follows the clustered-index contract used throughout the
repo: the scales are equi-depth per dimension (each partition holds roughly
the same number of rows along that dimension — the adaptive aspect of the
original design), rows are physically clustered by cell id, and a query scans
the contiguous row ranges of every intersecting cell.  Unlike Flood the number
of partitions per dimension is purely data-driven (no workload optimization),
which is exactly the gap the learned indexes exploit.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.baselines.base import ClusteredIndex, containment_exactness
from repro.common.errors import IndexBuildError
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: Never create more grid cells than this, regardless of page size; protects
#: the directory from exploding at high dimensionality (§5.1's 2^d blow-up).
MAX_CELLS = 1 << 18

#: At most this many dimensions receive more than one partition.  Grid Files
#: degrade quickly with dimensionality, so the most-filtered dimensions win.
MAX_INDEXED_DIMENSIONS = 6


class GridFileIndex(ClusteredIndex):
    """Equi-depth Grid File with a flat cell directory and clustered buckets."""

    name = "grid-file"

    def __init__(self, page_size: int = 2048, dimensions: list[str] | None = None) -> None:
        super().__init__()
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.page_size = page_size
        self._requested_dimensions = dimensions
        self.dimensions: list[str] = []
        self.partitions: dict[str, int] = {}
        self._scales: dict[str, np.ndarray] = {}
        self._strides: dict[str, int] = {}
        self._offsets: np.ndarray | None = None
        self._total_cells = 0

    # -- build -----------------------------------------------------------------------

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        """Pick the indexed dimensions and the number of partitions for each.

        The workload is only used to decide *which* dimensions to index (the
        ones queries actually filter); partition counts are derived from the
        data volume alone, which is what distinguishes a Grid File from the
        learned grids.
        """
        if self._requested_dimensions is not None:
            self.dimensions = list(self._requested_dimensions)
        else:
            candidates = list(table.column_names)
            if workload is not None and len(workload) > 0:
                filtered = [d for d in workload.filtered_dimensions() if d in candidates]
                self.dimensions = filtered or candidates
            else:
                self.dimensions = candidates
        self.dimensions = self.dimensions[:MAX_INDEXED_DIMENSIONS]
        if not self.dimensions:
            raise IndexBuildError("Grid File needs at least one dimension to index")

        num_dims = len(self.dimensions)
        target_cells = max(1, table.num_rows // self.page_size)
        per_dimension = max(1, int(round(target_cells ** (1.0 / num_dims))))
        self.partitions = {dim: per_dimension for dim in self.dimensions}
        # Respect the directory budget by shrinking partition counts evenly.
        while self._cell_count() > MAX_CELLS:
            widest = max(self.partitions, key=self.partitions.get)
            if self.partitions[widest] == 1:
                break
            self.partitions[widest] -= 1

    def _cell_count(self) -> int:
        total = 1
        for count in self.partitions.values():
            total *= count
        return total

    def _fit_scales(self, table: Table) -> dict[str, np.ndarray]:
        """Equi-depth split points (the Grid File's linear scales) per dimension."""
        scales: dict[str, np.ndarray] = {}
        for dim in self.dimensions:
            count = self.partitions[dim]
            if count <= 1:
                scales[dim] = np.array([], dtype=np.float64)
                continue
            values = table.values(dim)
            quantiles = np.quantile(values, np.linspace(0, 1, count + 1)[1:-1])
            scales[dim] = np.asarray(quantiles, dtype=np.float64)
        return scales

    def _partition_ids(self, values: np.ndarray, dim: str) -> np.ndarray:
        """Partition id of every value along ``dim`` (clipped to the scale)."""
        scale = self._scales[dim]
        if scale.size == 0:
            return np.zeros(values.shape, dtype=np.int64)
        return np.searchsorted(scale, values, side="right").astype(np.int64)

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        self._scales = self._fit_scales(table)
        self._strides = {}
        stride = 1
        for dim in reversed(self.dimensions):
            self._strides[dim] = stride
            stride *= self.partitions[dim]
        self._total_cells = stride

        cell_ids = np.zeros(table.num_rows, dtype=np.int64)
        for dim in self.dimensions:
            cell_ids += self._partition_ids(table.values(dim), dim) * self._strides[dim]
        permutation = np.argsort(cell_ids, kind="stable")
        counts = np.bincount(cell_ids[permutation], minlength=self._total_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return permutation

    # -- query -----------------------------------------------------------------------

    def _partition_window(self, query: Query, dim: str) -> tuple[int, int]:
        """Inclusive window of partition ids of ``dim`` intersecting the query."""
        predicate = query.predicate_for(dim)
        last = self.partitions[dim] - 1
        if predicate is None or last == 0:
            return 0, last
        scale = self._scales[dim]
        first = int(np.searchsorted(scale, predicate.low, side="right"))
        stop = int(np.searchsorted(scale, predicate.high, side="right"))
        return min(first, last), min(stop, last)

    def _cell_bounds(self, assignment: dict[str, int], table: Table) -> dict[str, tuple[int, int]]:
        """Axis-aligned bounds of one cell, for the exact-range optimization."""
        bounds: dict[str, tuple[int, int]] = {}
        for dim, partition in assignment.items():
            scale = self._scales[dim]
            table_low, table_high = table.bounds(dim)
            # Partition p holds values in [scale[p-1], scale[p]); the integer
            # bounds below may be slightly wider than the true extent (never
            # narrower), which keeps the exact-range optimization safe.
            low = table_low if partition == 0 else int(np.ceil(scale[partition - 1]))
            high = (
                table_high
                if partition >= scale.size
                else int(np.floor(scale[partition]))
            )
            bounds[dim] = (low, high)
        return bounds

    def _ranges_for_query(self, query: Query) -> list[RowRange]:
        assert self._offsets is not None
        windows = [self._partition_window(query, dim) for dim in self.dimensions]
        ranges: list[RowRange] = []
        for combination in product(*[range(first, last + 1) for first, last in windows]):
            assignment = dict(zip(self.dimensions, combination))
            cell_id = sum(assignment[dim] * self._strides[dim] for dim in self.dimensions)
            start = int(self._offsets[cell_id])
            stop = int(self._offsets[cell_id + 1])
            if stop <= start:
                continue
            exact = containment_exactness(self._cell_bounds(assignment, self.table), query)
            ranges.append(RowRange(start, stop, exact=exact))
        return ranges

    # -- reporting --------------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Number of directory cells (including empty ones)."""
        return self._total_cells

    def index_size_bytes(self) -> int:
        """Directory (one offset per cell) plus the per-dimension scales."""
        scales = sum(scale.size * 8 for scale in self._scales.values())
        return self._total_cells * 8 + scales

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "page_size": self.page_size,
                "dimensions": list(self.dimensions),
                "partitions": dict(self.partitions),
                "num_cells": self.num_cells,
            }
        )
        return info
