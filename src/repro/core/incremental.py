"""Incremental re-optimization of a built Tsunami index (§8).

The published system re-optimizes the *entire* index whenever the workload
changes.  The paper notes the obvious refinement: "Tsunami could be
incrementally adjusted, e.g. by only re-optimizing the Augmented Grids whose
regions saw the most significant workload shift."  This module implements that
extension.

:class:`IncrementalReoptimizer` compares the workload a
:class:`~repro.core.tsunami.TsunamiIndex` was optimized for against a newly
observed workload, scores every Grid Tree region by how much the share of
queries hitting it has shifted, and re-optimizes only the most-shifted
regions' Augmented Grids.  Because each region occupies a contiguous range of
physical rows, the data re-organization is confined to those ranges: rows
outside the re-optimized regions are never touched, which is what makes the
incremental path cheaper than a full :meth:`TsunamiIndex.reoptimize`.

A region is repaired with the index's own steps
(:meth:`~repro.core.tsunami.TsunamiIndex.region_queries`,
:meth:`~repro.core.tsunami.TsunamiIndex.optimize_region` and
:meth:`~repro.core.tsunami.TsunamiIndex.fit_region`), the ones its build
uses.  A pass computes every repaired region before it installs any, so a
pass that raises part-way leaves the index serving its old layout.

The Grid Tree itself is deliberately left unchanged — revising the region
boundaries requires moving rows across regions and is exactly the full
re-optimization this extension avoids.  When the drift detector
(:mod:`repro.core.drift`) reports a wholesale workload change, a full
re-optimization remains the right tool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import IndexBuildError
from repro.common.records import Record
from repro.core import tsunami
from repro.core.query_types import cluster_query_types
from repro.core.tsunami import TsunamiIndex
from repro.query.workload import Workload


@dataclass(frozen=True)
class RegionShift:
    """How much one Grid Tree region's share of the workload has moved."""

    region_id: int
    old_fraction: float
    new_fraction: float

    @property
    def shift(self) -> float:
        """Absolute change in the fraction of queries intersecting the region."""
        return abs(self.new_fraction - self.old_fraction)


@dataclass
class IncrementalReport(Record):
    """Outcome of one incremental re-optimization pass."""

    seconds: float
    regions_considered: int
    regions_reoptimized: tuple[int, ...]
    shifts: tuple[RegionShift, ...] = field(default=())

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"re-optimized {len(self.regions_reoptimized)} of "
            f"{self.regions_considered} regions in {self.seconds:.2f}s"
        )


class IncrementalReoptimizer:
    """Re-optimizes only the Augmented Grids whose regions shifted the most.

    Parameters
    ----------
    index:
        A built :class:`TsunamiIndex` (its Grid Tree and physical layout stay
        fixed; only per-region grids and their rows are touched).
    shift_threshold:
        Minimum absolute change in a region's workload share for it to be
        re-optimized.
    max_regions:
        Upper bound on how many regions one pass may re-optimize (the
        most-shifted regions win); ``None`` means no bound.
    """

    def __init__(
        self,
        index: TsunamiIndex,
        shift_threshold: float = 0.05,
        max_regions: int | None = None,
    ) -> None:
        if not index.is_built:
            raise IndexBuildError("IncrementalReoptimizer requires a built TsunamiIndex")
        if shift_threshold < 0:
            raise ValueError(f"shift_threshold must be >= 0, got {shift_threshold}")
        if max_regions is not None and max_regions < 1:
            raise ValueError(f"max_regions must be >= 1, got {max_regions}")
        self.index = index
        self.shift_threshold = shift_threshold
        self.max_regions = max_regions

    # -- shift scoring -----------------------------------------------------------

    def _workload_shares(self, workload: Workload) -> dict[int, float]:
        """Fraction of ``workload`` queries intersecting each leaf region."""
        total = max(len(workload), 1)
        return {
            region.node.region_id: len(self.index.region_queries(region.node.bounds, workload)) / total
            for region in self.index._regions
        }

    def region_shifts(self, new_workload: Workload) -> list[RegionShift]:
        """Per-region workload-share shift, sorted by decreasing shift."""
        old_workload = self.index.typed_workload or Workload([], name="empty")
        old_fractions = self._workload_shares(old_workload)
        new_fractions = self._workload_shares(new_workload)
        shifts = [
            RegionShift(
                region_id=region_id,
                old_fraction=old_fractions.get(region_id, 0.0),
                new_fraction=new_fractions.get(region_id, 0.0),
            )
            for region_id in old_fractions
        ]
        shifts.sort(key=lambda shift: (-shift.shift, shift.region_id))
        return shifts

    def _select_regions(self, shifts: list[RegionShift]) -> list[int]:
        """Region ids to re-optimize, honouring threshold and budget."""
        selected = [shift.region_id for shift in shifts if shift.shift >= self.shift_threshold]
        if self.max_regions is not None:
            selected = selected[: self.max_regions]
        return selected

    # -- re-optimization ------------------------------------------------------------

    def reoptimize(self, new_workload: Workload) -> IncrementalReport:
        """Re-optimize the grids of the most-shifted regions for ``new_workload``.

        Rows inside a re-optimized region are re-clustered by the new grid's
        cell order; all other rows keep their physical position.  Every
        selected region is optimized and fitted before any is installed, so
        a pass that raises leaves the index's layout untouched.  The index's
        recorded workload is updated so subsequent passes compare against the
        workload it is now optimized for.
        """
        start = time.perf_counter()
        index = self.index
        table = index.table
        typed = new_workload
        if len(new_workload) > 0 and any(q.query_type is None for q in new_workload):
            typed = cluster_query_types(table, new_workload, seed=tsunami.SEED)

        shifts = self.region_shifts(typed)
        selected = set(self._select_regions(shifts))
        repairs = []
        for region in index._regions:
            if region.node.region_id not in selected or region.num_rows == 0:
                continue
            queries = index.region_queries(region.node.bounds, typed)
            if not queries:
                continue
            stop = region.row_offset + region.num_rows
            rows = table.subset(
                np.arange(region.row_offset, stop),
                name=f"{table.name}_r{region.node.region_id}",
            )
            config = index.optimize_region(rows, queries)
            if config is None:
                continue
            repairs.append((region, *index.fit_region(config, rows)))

        for region, grid, permutation in repairs:
            table.reorder_rows(permutation, region.row_offset, region.row_offset + region.num_rows)
            region.grid = grid
        if repairs:
            # Advance the comparison baseline only when re-optimization work
            # was actually performed.  Advancing it on a no-op pass would let
            # repeated sub-threshold shifts each reset the baseline and never
            # accumulate into a trigger.
            index.typed_workload = typed
        return IncrementalReport(
            seconds=time.perf_counter() - start,
            regions_considered=len(shifts),
            regions_reoptimized=tuple(region.node.region_id for region, _, _ in repairs),
            shifts=tuple(shifts),
        )
