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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import ClusteredIndex, containment_exactness
from repro.common.errors import IndexBuildError, OptimizationError
from repro.core.augmented_grid import DEFAULT_MAX_CELLS, AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel
from repro.core.grid_tree import GridTree, GridTreeConfig, GridTreeNode
from repro.core.optimizer import (
    AdaptiveGradientDescent,
    OptimizerResult,
    initialize_partitions,
)
from repro.core.query_types import PlanCache, PlanCacheStats, cluster_query_types
from repro.core.skeleton import Skeleton
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table


@dataclass(frozen=True)
class TsunamiConfig:
    """Configuration of the end-to-end Tsunami index.

    The two ``use_*`` switches exist for the Fig. 12a ablation:
    ``use_grid_tree=False`` yields the Augmented-Grid-only variant,
    ``use_augmented_strategies=False`` yields the Grid-Tree-only variant
    (a Flood-style independent grid inside each region).

    ``plan_cache_entries`` sizes the per-region plan cache (0 disables
    caching).
    """

    grid_tree: GridTreeConfig = field(default_factory=GridTreeConfig)
    use_grid_tree: bool = True
    use_augmented_strategies: bool = True
    plan_cache_entries: int = 4096
    cost_model: CostModel = field(default_factory=CostModel)
    optimizer_iterations: int = 4
    optimizer_sample_rows: int = 10_000
    target_points_per_cell: int = 128
    max_cells_per_region: int = DEFAULT_MAX_CELLS
    query_type_eps: float = 0.2
    query_type_min_samples: int = 4
    seed: int = 43


@dataclass
class _RegionIndex:
    """Bookkeeping for one Grid Tree leaf region inside the built index."""

    node: GridTreeNode
    row_offset: int
    num_rows: int
    grid: AugmentedGrid | None
    optimizer_result: OptimizerResult | None


class TsunamiIndex(ClusteredIndex):
    """The learned multi-dimensional index this repository reproduces."""

    name = "tsunami"

    def __init__(self, config: TsunamiConfig | None = None) -> None:
        super().__init__()
        self.config = config or TsunamiConfig()
        self.grid_tree: GridTree | None = None
        self.typed_workload: Workload | None = None
        self._region_ids: np.ndarray | None = None
        self._region_configs: dict[int, AugmentedGridConfig | None] = {}
        self._region_results: dict[int, OptimizerResult | None] = {}
        self._regions: list[_RegionIndex] = []

    # -- optimization (offline, §3) ----------------------------------------------

    def _make_optimizer(self) -> AdaptiveGradientDescent:
        return AdaptiveGradientDescent(
            cost_model=self.config.cost_model,
            max_iterations=self.config.optimizer_iterations,
            naive_init=not self.config.use_augmented_strategies,
            search_skeleton=self.config.use_augmented_strategies,
            target_points_per_cell=self.config.target_points_per_cell,
            sample_rows=self.config.optimizer_sample_rows,
            max_cells=self.config.max_cells_per_region,
            seed=self.config.seed,
        )

    def _default_config(self, table: Table, workload: Workload) -> AugmentedGridConfig:
        """Fallback configuration when a region has no queries to optimize for."""
        skeleton = Skeleton.all_independent(list(table.column_names))
        partitions = initialize_partitions(
            skeleton,
            table,
            workload,
            target_points_per_cell=self.config.target_points_per_cell,
            max_cells=self.config.max_cells_per_region,
            seed=self.config.seed,
        )
        return AugmentedGridConfig(
            skeleton=skeleton,
            partitions=partitions,
            max_cells=self.config.max_cells_per_region,
        )

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        workload = workload or Workload([], name="empty")
        if len(workload) > 0:
            self.typed_workload = cluster_query_types(
                table,
                workload,
                eps=self.config.query_type_eps,
                min_samples=self.config.query_type_min_samples,
                seed=self.config.seed,
            )
        else:
            self.typed_workload = workload

        # Step 1: optimize the Grid Tree over the full dataset and workload.
        if self.config.use_grid_tree and len(self.typed_workload) > 0:
            self.grid_tree = GridTree(self.config.grid_tree).fit(table, self.typed_workload)
            self._region_ids = self.grid_tree.assign_regions(table)
            regions = self.grid_tree.leaves
        else:
            self.grid_tree = None
            self._region_ids = np.zeros(table.num_rows, dtype=np.int64)
            regions = [self._whole_space_node(table)]

        # Step 2: optimize an Augmented Grid per region over the points and
        # queries that intersect it.
        self._region_configs = {}
        self._region_results = {}
        optimizer = self._make_optimizer()
        for node in regions:
            region_id = node.region_id
            row_ids = np.flatnonzero(self._region_ids == region_id)
            if len(row_ids) == 0:
                self._region_configs[region_id] = None
                self._region_results[region_id] = None
                continue
            region_queries = [
                q for q in self.typed_workload if q.intersects_box(self._int_bounds(node))
            ]
            region_table = table.subset(row_ids, name=f"{table.name}_region{region_id}")
            if not region_queries:
                # §3: regions no query intersects are not given an Augmented Grid.
                self._region_configs[region_id] = None
                self._region_results[region_id] = None
                continue
            try:
                result = optimizer.optimize(
                    region_table,
                    Workload(region_queries, name=f"region{region_id}"),
                    dimensions=list(table.column_names),
                )
                self._region_configs[region_id] = result.config
                self._region_results[region_id] = result
            except OptimizationError:
                self._region_configs[region_id] = self._default_config(
                    region_table, Workload(region_queries)
                )
                self._region_results[region_id] = None

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

    @staticmethod
    def _int_bounds(node: GridTreeNode) -> dict[str, tuple[int, int]]:
        return {
            dim: (int(np.floor(low)), int(np.ceil(high)) - 1)
            for dim, (low, high) in node.bounds.items()
        }

    # -- layout (clustered reorganization) -----------------------------------------

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        assert self._region_ids is not None
        if self.grid_tree is not None:
            regions = self.grid_tree.leaves
        else:
            regions = [self._whole_space_node(table)]

        self._regions = []
        chunks: list[np.ndarray] = []
        offset = 0
        for node in regions:
            region_id = node.region_id
            row_ids = np.flatnonzero(self._region_ids == region_id)
            config = self._region_configs.get(region_id)
            grid: AugmentedGrid | None = None
            if len(row_ids) > 0 and config is not None:
                region_table = table.subset(row_ids, name=f"{table.name}_r{region_id}")
                plan_cache = (
                    PlanCache(self.config.plan_cache_entries)
                    if self.config.plan_cache_entries > 0
                    else None
                )
                grid = AugmentedGrid(config, plan_cache=plan_cache)
                relative_permutation = grid.fit(region_table)
                chunks.append(row_ids[relative_permutation])
            else:
                chunks.append(row_ids)
            self._regions.append(
                _RegionIndex(
                    node=node,
                    row_offset=offset,
                    num_rows=len(row_ids),
                    grid=grid,
                    optimizer_result=self._region_results.get(region_id),
                )
            )
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
                exact = containment_exactness(self._int_bounds(region.node), query)
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
        if not self._regions:
            raise IndexBuildError("Tsunami index has not been built")
        if self.grid_tree is not None:
            nodes = self.grid_tree.regions_for_query(query)
            regions = self._regions_by_id({node.region_id for node in nodes})
        else:
            regions = self._regions
        return self._region_ranges(query, regions)

    def _ranges_for_queries(self, queries) -> list[list[RowRange]]:
        """Batch planning: route every query through the Grid Tree in one pass."""
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
