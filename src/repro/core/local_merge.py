"""Local (per-region) merge of buffered inserts into a built Tsunami index.

The global merge path in :mod:`repro.core.delta` folds the buffer into the
table and rebuilds the whole wrapped index — O(table) work per merge
regardless of where the inserted rows land.  FlexFlood (arXiv 2411.09205)
shows a learned multi-dimensional index can instead absorb inserts by
reorganizing only the affected cells.  This module implements that idea for
:class:`~repro.core.tsunami.TsunamiIndex`, whose clustered layout makes it
natural: every Grid Tree region owns a contiguous range of physical rows, so
a merge only has to rewrite the ranges of regions that actually received
rows.

The merge runs in two phases:

1. **Compute** (the serving index is never touched): buffered rows are routed
   to their owning region with the same vectorized
   :meth:`~repro.core.grid_tree.GridTree.assign_regions` descent the build
   uses, a merged table is materialized region-by-region (each column lands
   on the narrowest dtype covering the *combined* value range, so an insert
   that overflows a narrow column widens exactly that column — matching the
   rebuild path bit for bit), and every touched region is locally re-sorted:

   * Regions whose pending-row fraction stays at or under
     :data:`DEFAULT_SPLIT_THRESHOLD` *absorb* the rows — the region's fitted
     grid folds them in via
     :meth:`~repro.core.augmented_grid.AugmentedGrid.absorb` (only the new
     rows are assigned to cells; existing rows keep their cells under the
     carried-over CDF models, and functional mappings get bound-widened
     copies) and the row range is re-sorted in place via
     :meth:`~repro.storage.table.Table.reorder_rows`.
   * Regions that overflow the threshold (including previously *empty*
     regions, whose pending fraction is infinite) get a **local split**: the
     region's grid configuration is re-optimized from scratch over the merged
     region rows with the index's own repair steps
     (:meth:`~repro.core.tsunami.TsunamiIndex.region_queries`,
     :meth:`~repro.core.tsunami.TsunamiIndex.optimize_region` and
     :meth:`~repro.core.tsunami.TsunamiIndex.fit_region`), the ones its build
     and :class:`~repro.core.incremental.IncrementalReoptimizer` use.  A
     region with no intersecting queries (or a failed optimization) is
     refitted with its current configuration, or stays unindexed.

   Regions that received no rows are not rewritten and keep their fitted
   grids *and their plan caches* — Augmented Grid plans are region-relative
   (offsets are applied after cache lookup), so shifting a region's
   ``row_offset`` does not invalidate its cached plans.

2. **Install** (plain assignments, nothing can fail): the merged table and
   executor replace the old ones, per-region offsets/grids are updated, and
   the bounds of leaves that absorbed out-of-domain values are widened so
   containment checks and query routing stay exact.

A merge that raises during phase 1 therefore leaves the index serving the
old table with the buffer intact, the same atomicity contract as the global
rebuild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.common.errors import IndexBuildError
from repro.common.validation import narrowest_dtype
from repro.core.tsunami import TsunamiIndex
from repro.query.workload import Workload
from repro.storage.column import Column, StorageMeta
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

#: Default pending-row fraction above which a touched region is re-optimized
#: (a "local split") instead of refitting its existing grid configuration.
DEFAULT_SPLIT_THRESHOLD = 0.5


@dataclass(frozen=True)
class LocalMergeResult:
    """Outcome of one local merge pass over a built Tsunami index."""

    rows_merged: int
    regions_touched: int
    regions_total: int
    regions_split: int


def supports_local_merge(index: object) -> bool:
    """Whether ``index`` can be merged locally (built Tsunami with regions)."""
    return (
        isinstance(index, TsunamiIndex)
        and index.is_built
        and bool(index._regions)
    )


def _route_rows(
    index: TsunamiIndex, pending: Table
) -> dict[int, np.ndarray]:
    """Buffered row positions per region id, via the build-time descent."""
    if index.grid_tree is not None:
        region_ids = index.grid_tree.assign_regions(pending)
    else:
        region_ids = np.zeros(pending.num_rows, dtype=np.int64)
        region_ids += index._regions[0].node.region_id
    return {
        int(region_id): np.flatnonzero(region_ids == region_id)
        for region_id in np.unique(region_ids)
    }


def _merged_columns(
    old_table: Table,
    pending: Table,
    region_slices: list[tuple[int, int, np.ndarray]],
) -> list[Column]:
    """Materialize merged columns in the new physical region order.

    ``region_slices`` lists, per region in physical order, the old row range
    ``[start, stop)`` and the buffered row positions appended to it.  Each
    column is allocated once on the narrowest dtype covering the combined
    range, so only columns whose inserts overflow the old dtype are widened —
    the same dtype the global rebuild's re-narrowing concatenation lands on.
    """
    columns: list[Column] = []
    for name in old_table.column_names:
        source = old_table.column(name)
        buffered = pending.values(name)
        low, high = pending.bounds(name)
        if len(source):
            low = min(low, source.min())
            high = max(high, source.max())
        dtype = narrowest_dtype(low, high)
        merged = np.empty(old_table.num_rows + buffered.shape[0], dtype=dtype)
        old_values = source.values
        position = 0
        for start, stop, new_rows in region_slices:
            merged[position : position + (stop - start)] = old_values[start:stop]
            position += stop - start
            if len(new_rows):
                merged[position : position + len(new_rows)] = buffered[new_rows]
                position += len(new_rows)
        columns.append(
            Column(
                name,
                merged,
                dictionary=source.dictionary,
                scaler=source.scaler,
                meta=StorageMeta(dtype=dtype, min_value=low, max_value=high),
            )
        )
    return columns


def _widened_bounds(
    node_bounds: Mapping[str, tuple[float, float]],
    pending: Table,
    new_rows: np.ndarray,
) -> dict[str, tuple[float, float]]:
    """Leaf bounds grown to cover the region's newly absorbed rows.

    Bounds are half-open floats; a stored integer ``v`` is covered when
    ``high >= v + 1``.  Widening (never shrinking) keeps
    ``containment_exactness`` sound: a query that contains the widened box
    still contains every row in the region.
    """
    bounds = {}
    for dim, (low, high) in node_bounds.items():
        values = pending.values(dim)[new_rows]
        bounds[dim] = (
            min(low, float(values.min())),
            max(high, float(values.max()) + 1.0),
        )
    return bounds


def local_merge(index: TsunamiIndex, pending: Table) -> LocalMergeResult:
    """Fold buffered rows into ``index`` by reorganizing only touched regions.

    ``pending`` holds the buffered rows in storage-domain values, one column
    per table column (a :class:`~repro.core.delta.DeltaBuffer`'s
    :attr:`~repro.core.delta.DeltaBuffer.table`).  The caller is responsible
    for checking :func:`supports_local_merge` first and for resetting its
    buffer afterwards.
    """
    old_table = index.table
    rows_by_region = _route_rows(index, pending)

    # -- phase 1: compute the merged table without touching the index ------
    region_slices = []
    new_offsets = []
    offset = 0
    for region in index._regions:
        new_rows = rows_by_region.get(region.node.region_id, np.empty(0, dtype=np.int64))
        region_slices.append(
            (region.row_offset, region.row_offset + region.num_rows, new_rows)
        )
        new_offsets.append(offset)
        offset += region.num_rows + len(new_rows)
    merged_table = Table(old_table.name, _merged_columns(old_table, pending, region_slices))

    typed = index.typed_workload or Workload([], name="empty")
    updates: list[dict] = []
    regions_split = 0
    for position, region in enumerate(index._regions):
        new_rows = region_slices[position][2]
        if not len(new_rows):
            continue
        start = new_offsets[position]
        stop = start + region.num_rows + len(new_rows)
        bounds = _widened_bounds(region.node.bounds, pending, new_rows)
        update: dict = {"position": position, "bounds": bounds}
        name = f"{merged_table.name}_r{region.node.region_id}"

        # Either way the region gets a fresh grid object (the serving one is
        # never touched before phase 2) with a fresh, empty plan cache: the
        # old cached spans address the row order this merge is about to
        # rewrite.
        config = region.grid.config if region.grid is not None else None
        grid = None
        overflow = (
            math.inf
            if region.num_rows == 0
            else len(new_rows) / region.num_rows
        ) > DEFAULT_SPLIT_THRESHOLD
        if overflow:
            queries = index.region_queries(bounds, typed)
            if queries:
                split = index.optimize_region(
                    merged_table.subset(np.arange(start, stop), name=name), queries
                )
                if split is not None:
                    config = split
                    regions_split += 1
        elif region.grid is not None:
            # Absorb: the region keeps its configuration, so the fitted grid
            # folds the appended rows in without re-assigning the old ones
            # (cells and CDF models carry over) — the size-proportional model
            # sweeps a full refit pays are what would otherwise make merge
            # cost grow with the table.
            appended = merged_table.subset(
                np.arange(start + region.num_rows, stop), name=f"{name}_new"
            )
            try:
                grid, relative_permutation = region.grid.absorb(
                    appended, plan_cache=index.new_plan_cache()
                )
            except IndexBuildError:
                grid = None
        if grid is None and config is not None:
            # Local split (or a grid that could not absorb): refit from
            # scratch over the merged region rows.
            grid, relative_permutation = index.fit_region(
                config, merged_table.subset(np.arange(start, stop), name=name)
            )
        if grid is not None:
            merged_table.reorder_rows(relative_permutation, start, stop)
            update["grid"] = grid
        updates.append(update)

    # -- phase 2: install (plain assignments; nothing here can fail) -------
    for update in updates:
        region = index._regions[update["position"]]
        region.node.bounds = update["bounds"]
        if "grid" in update:
            region.grid = update["grid"]
    for position, region in enumerate(index._regions):
        added = len(region_slices[position][2])
        region.row_offset = new_offsets[position]
        region.num_rows += added
        region.node.num_points += added
    index._table = merged_table
    index._executor = ScanExecutor(merged_table)
    return LocalMergeResult(
        rows_merged=pending.num_rows,
        regions_touched=len(updates),
        regions_total=len(index._regions),
        regions_split=regions_split,
    )
