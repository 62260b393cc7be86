"""The end-to-end Tsunami index (§3).

Tsunami composes the two structures introduced by the paper:

1. A :class:`~repro.core.grid_tree.GridTree` partitions the data space into
   non-overlapping regions so that the query workload has little skew inside
   each region (§4).
2. Inside every region that the sample workload touches, an
   :class:`~repro.core.augmented_grid.AugmentedGrid` indexes that region's
   points, with its skeleton and partition counts chosen by Adaptive Gradient
   Descent against the cost model (§5).  Regions no query touches are left
   unindexed and simply scanned if a future query hits them.

The index is clustered: rows are physically ordered by (region, cell), so
every query resolves to a small number of contiguous row ranges.

Each region is one :class:`_RegionIndex` record: its Grid Tree leaf, its
contiguous row range, and its fitted grid, which carries its configuration.
Build, drift re-optimization (:mod:`repro.core.incremental`) and local merges
(:mod:`repro.core.local_merge`) repair a region through the same steps:
:meth:`TsunamiIndex.region_queries` picks the queries that intersect it,
:meth:`TsunamiIndex.optimize_region` runs AGD over its rows, and
:meth:`TsunamiIndex.fit_region` fits its grid with a fresh plan cache.  Each
caller keeps only its own policy: which regions to repair and what to do
when AGD fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import ClusteredIndex, containment_exactness
from repro.common.errors import IndexBuildError, OptimizationError
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel
from repro.core.grid_tree import GridTree, GridTreeConfig, GridTreeNode
from repro.core.optimizer import AdaptiveGradientDescent, initialize_partitions
from repro.core.query_types import PlanCache, PlanCacheStats, cluster_query_types
from repro.core.skeleton import Skeleton
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: Plans each region's grid caches.  A skewed workload's plans repeat (99.5%
#: of servebench's ``taxi_skewed`` lookups hit), and a hit costs 0.5-0.7x an
#: uncached plan.
PLAN_CACHE_ENTRIES = 4096


@dataclass(frozen=True)
class TsunamiConfig:
    """Configuration of the end-to-end Tsunami index.

    The two ``use_*`` switches exist for the Fig. 12a ablation:
    ``use_grid_tree=False`` yields the Augmented-Grid-only variant,
    ``use_augmented_strategies=False`` yields the Grid-Tree-only variant
    (a Flood-style independent grid inside each region).
    """

    grid_tree: GridTreeConfig = field(default_factory=GridTreeConfig)
    use_grid_tree: bool = True
    use_augmented_strategies: bool = True
    cost_model: CostModel = field(default_factory=CostModel)
    optimizer_iterations: int = 4
    optimizer_sample_rows: int = 10_000
    target_points_per_cell: int = 128
    seed: int = 43


def _int_box(bounds: Mapping[str, tuple[float, float]]) -> dict[str, tuple[int, int]]:
    """The inclusive integer box of half-open float region ``bounds``."""
    return {
        dim: (int(np.floor(low)), int(np.ceil(high)) - 1)
        for dim, (low, high) in bounds.items()
    }


@dataclass
class _RegionIndex:
    """One Grid Tree leaf region inside the built index.

    The region owns rows ``[row_offset, row_offset + num_rows)`` of the
    clustered table.  ``grid`` covers exactly those rows, or is ``None`` for a
    region no query intersected (it is scanned whole).
    """

    node: GridTreeNode
    row_offset: int
    num_rows: int
    grid: AugmentedGrid | None


class TsunamiIndex(ClusteredIndex):
    """The learned multi-dimensional index this repository reproduces."""

    name = "tsunami"

    def __init__(self, config: TsunamiConfig | None = None) -> None:
        super().__init__()
        self.config = config or TsunamiConfig()
        self.grid_tree: GridTree | None = None
        self.typed_workload: Workload | None = None
        self._regions: list[_RegionIndex] = []
        # Each region's (leaf, row ids, configuration), handed from _optimize
        # to _layout_permutation; empty outside a build.
        self._layout_plan: list[
            tuple[GridTreeNode, np.ndarray, AugmentedGridConfig | None]
        ] = []

    # -- region repair (build, incremental re-optimization, local merges) ----------

    def region_queries(
        self, bounds: Mapping[str, tuple[float, float]], workload: Workload
    ) -> list[Query]:
        """The queries of ``workload`` that intersect a region's half-open ``bounds``."""
        box = _int_box(bounds)
        return [query for query in workload if query.intersects_box(box)]

    def optimize_region(
        self, rows: Table, queries: Sequence[Query]
    ) -> AugmentedGridConfig | None:
        """AGD's configuration for a region's ``rows`` and ``queries``.

        Returns ``None`` when AGD fails; the caller picks the fallback.
        """
        optimizer = AdaptiveGradientDescent(
            cost_model=self.config.cost_model,
            max_iterations=self.config.optimizer_iterations,
            naive_init=not self.config.use_augmented_strategies,
            search_skeleton=self.config.use_augmented_strategies,
            target_points_per_cell=self.config.target_points_per_cell,
            sample_rows=self.config.optimizer_sample_rows,
            seed=self.config.seed,
        )
        try:
            return optimizer.optimize(rows, Workload(list(queries), name=rows.name)).config
        except OptimizationError:
            return None

    def new_plan_cache(self) -> PlanCache:
        """A fresh plan cache for a region whose rows are re-sorted.

        Cached spans address the old row order, so every refitted grid starts
        empty.
        """
        return PlanCache(PLAN_CACHE_ENTRIES)

    def fit_region(
        self, config: AugmentedGridConfig, rows: Table
    ) -> tuple[AugmentedGrid, np.ndarray]:
        """A grid fitted over a region's ``rows``, with a fresh plan cache.

        Also returns the permutation that orders ``rows`` by cell.
        """
        grid = AugmentedGrid(config, plan_cache=self.new_plan_cache())
        return grid, grid.fit(rows)

    # -- optimization (offline, §3) ----------------------------------------------

    def _default_config(self, table: Table, workload: Workload) -> AugmentedGridConfig:
        """Build's fallback configuration for a region whose AGD run failed."""
        skeleton = Skeleton.all_independent(list(table.column_names))
        partitions = initialize_partitions(
            skeleton,
            table,
            workload,
            target_points_per_cell=self.config.target_points_per_cell,
            seed=self.config.seed,
        )
        return AugmentedGridConfig(skeleton=skeleton, partitions=partitions)

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        workload = workload or Workload([], name="empty")
        if len(workload) > 0:
            self.typed_workload = cluster_query_types(table, workload, seed=self.config.seed)
        else:
            self.typed_workload = workload

        # Step 1: optimize the Grid Tree over the full dataset and workload.
        if self.config.use_grid_tree and len(self.typed_workload) > 0:
            self.grid_tree = GridTree(self.config.grid_tree).fit(table, self.typed_workload)
            region_ids = self.grid_tree.assign_regions(table)
            nodes = self.grid_tree.leaves
        else:
            self.grid_tree = None
            region_ids = np.zeros(table.num_rows, dtype=np.int64)
            nodes = [self._whole_space_node(table)]

        # Step 2: configure an Augmented Grid per region over the points and
        # queries that intersect it.  §3: a region no query intersects is not
        # given one.
        self._layout_plan = []
        for node in nodes:
            row_ids = np.flatnonzero(region_ids == node.region_id)
            config = None
            queries = self.region_queries(node.bounds, self.typed_workload)
            if len(row_ids) and queries:
                rows = table.subset(row_ids, name=f"{table.name}_region{node.region_id}")
                config = self.optimize_region(rows, queries)
                if config is None:
                    config = self._default_config(rows, Workload(queries))
            self._layout_plan.append((node, row_ids, config))

    @staticmethod
    def _whole_space_node(table: Table) -> GridTreeNode:
        bounds = {}
        for dim in table.column_names:
            low, high = table.bounds(dim)
            bounds[dim] = (float(low), float(high) + 1.0)
        node = GridTreeNode(
            bounds=bounds, depth=0, num_points=table.num_rows, num_queries=0
        )
        node.region_id = 0
        return node

    # -- layout (clustered reorganization) -----------------------------------------

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        plan, self._layout_plan = self._layout_plan, []
        self._regions = []
        chunks: list[np.ndarray] = []
        offset = 0
        for node, row_ids, config in plan:
            grid: AugmentedGrid | None = None
            if config is not None:
                rows = table.subset(row_ids, name=f"{table.name}_r{node.region_id}")
                grid, permutation = self.fit_region(config, rows)
                row_ids = row_ids[permutation]
            chunks.append(row_ids)
            self._regions.append(_RegionIndex(node, offset, len(row_ids), grid))
            offset += len(row_ids)
        if not chunks:
            return None
        return np.concatenate(chunks)

    # -- query processing (§3) -------------------------------------------------------

    def _regions_by_id(self, region_ids: set[int]) -> list[_RegionIndex]:
        return [r for r in self._regions if r.node.region_id in region_ids]

    def _region_ranges(self, query: Query, regions: list[_RegionIndex]) -> list[RowRange]:
        """Row ranges for ``query`` across the given (pre-routed) regions."""
        ranges: list[RowRange] = []
        for region in regions:
            if region.num_rows == 0:
                continue
            if region.grid is None:
                exact = containment_exactness(_int_box(region.node.bounds), query)
                ranges.append(
                    RowRange(
                        region.row_offset,
                        region.row_offset + region.num_rows,
                        exact=exact,
                    )
                )
                continue
            ranges.extend(
                region.grid.ranges_for_query(query, offset=region.row_offset)
            )
        return ranges

    def _ranges_for_query(self, query: Query) -> list[RowRange]:
        return self._ranges_for_queries([query])[0]

    def _ranges_for_queries(self, queries) -> list[list[RowRange]]:
        """Route every query through the Grid Tree in one pass, then plan it per region."""
        if not self._regions:
            raise IndexBuildError("Tsunami index has not been built")
        if self.grid_tree is None:
            return [self._region_ranges(query, self._regions) for query in queries]
        routed = self.grid_tree.regions_for_queries(queries)
        return [
            self._region_ranges(
                query, self._regions_by_id({node.region_id for node in nodes})
            )
            for query, nodes in zip(queries, routed)
        ]

    # -- adaptability (§6.4) ------------------------------------------------------------

    def reoptimize(self, workload: Workload) -> float:
        """Re-optimize the layout for a new workload and re-organize the data.

        Returns the wall-clock seconds the re-optimization plus re-organization
        took (the quantity plotted in Fig. 9a).
        """
        table = self.table
        start = time.perf_counter()
        self.build(table, workload)
        return time.perf_counter() - start

    # -- reporting -------------------------------------------------------------------------

    def plan_cache_stats(self) -> PlanCacheStats:
        """Aggregated plan-cache statistics across every region's grid.

        Caches are recreated (empty, zeroed stats) whenever the index is
        rebuilt or :meth:`reoptimize` re-organizes the layout, because cached
        spans address the previous physical row order.
        """
        total = PlanCacheStats()
        for region in self._regions:
            if region.grid is not None and region.grid.plan_cache is not None:
                total.merge(region.grid.plan_cache.stats)
        return total

    def plan_cache_entries(self) -> int:
        """Number of plans currently cached across all regions."""
        return sum(
            len(region.grid.plan_cache)
            for region in self._regions
            if region.grid is not None and region.grid.plan_cache is not None
        )

    def index_size_bytes(self) -> int:
        total = self.grid_tree.size_bytes() if self.grid_tree is not None else 64
        for region in self._regions:
            if region.grid is not None:
                total += region.grid.index_size_bytes()
        return total

    def total_grid_cells(self) -> int:
        """Total number of Augmented Grid cells across all regions (Table 4)."""
        return sum(r.grid.num_cells for r in self._regions if r.grid is not None)

    def describe(self) -> dict:
        """Table 4 statistics of the optimized index."""
        info = super().describe()
        indexed_regions = [r for r in self._regions if r.grid is not None]
        mappings = [r.grid.skeleton.num_functional_mappings for r in indexed_regions]
        conditionals = [r.grid.skeleton.num_conditional_cdfs for r in indexed_regions]
        points = [r.num_rows for r in self._regions if r.num_rows > 0]
        tree_stats = (
            self.grid_tree.describe()
            if self.grid_tree is not None
            else {"num_nodes": 1, "depth": 0, "num_regions": 1}
        )
        info.update(
            {
                "num_grid_tree_nodes": tree_stats["num_nodes"],
                "grid_tree_depth": tree_stats["depth"],
                "num_leaf_regions": tree_stats["num_regions"],
                "min_points_per_region": int(min(points)) if points else 0,
                "median_points_per_region": float(np.median(points)) if points else 0.0,
                "max_points_per_region": int(max(points)) if points else 0,
                "avg_functional_mappings_per_region": float(np.mean(mappings)) if mappings else 0.0,
                "avg_conditional_cdfs_per_region": float(np.mean(conditionals)) if conditionals else 0.0,
                "total_grid_cells": self.total_grid_cells(),
            }
        )
        return info


def make_tsunami(**overrides) -> TsunamiIndex:
    """Convenience constructor: ``make_tsunami(optimizer_iterations=2, ...)``."""
    return TsunamiIndex(TsunamiConfig(**overrides))
