"""Flood: the original learned multi-dimensional index (§2.2, §6.1 baseline 5).

Flood imposes a single uniform grid over the whole data space: every dimension
is partitioned independently, uniformly in its own CDF, and the number of
partitions per dimension is tuned for the query workload.  The paper evaluates
Flood with Tsunami's cost model and binary-search refinement instead of
per-cell models; we therefore implement Flood as a single
:class:`~repro.core.augmented_grid.AugmentedGrid` restricted to the
all-independent skeleton, with partition counts optimized by gradient descent
over the same cost model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import ClusteredIndex
from repro.common.errors import OptimizationError
from repro.core.augmented_grid import DEFAULT_MAX_CELLS, AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel
from repro.core.optimizer import GradientDescentOnly, initialize_partitions
from repro.core.skeleton import Skeleton
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table


class FloodIndex(ClusteredIndex):
    """A workload-tuned uniform grid with per-dimension CDF models."""

    name = "flood"

    def __init__(
        self,
        cost_model: CostModel | None = None,
        optimizer_iterations: int = 4,
        target_points_per_cell: int = 256,
        sample_rows: int = 20_000,
        max_cells: int = DEFAULT_MAX_CELLS,
        seed: int = 47,
    ) -> None:
        super().__init__()
        self.cost_model = cost_model or CostModel()
        self.optimizer_iterations = optimizer_iterations
        self.target_points_per_cell = target_points_per_cell
        self.sample_rows = sample_rows
        self.max_cells = max_cells
        self.seed = seed
        self.grid: AugmentedGrid | None = None
        self._config: AugmentedGridConfig | None = None
        self.optimizer_result = None

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        dims = list(table.column_names)
        skeleton = Skeleton.all_independent(dims)
        if workload is None or len(workload) == 0:
            partitions = initialize_partitions(
                skeleton,
                table,
                Workload([]),
                target_points_per_cell=self.target_points_per_cell,
                max_cells=self.max_cells,
                seed=self.seed,
            )
            self._config = AugmentedGridConfig(
                skeleton=skeleton, partitions=partitions, max_cells=self.max_cells
            )
            return
        optimizer = GradientDescentOnly(
            cost_model=self.cost_model,
            max_iterations=self.optimizer_iterations,
            naive_init=True,
            target_points_per_cell=self.target_points_per_cell,
            sample_rows=self.sample_rows,
            max_cells=self.max_cells,
            seed=self.seed,
        )
        try:
            result = optimizer.optimize(table, workload, dimensions=dims)
            self.optimizer_result = result
            self._config = result.config
        except OptimizationError:
            partitions = initialize_partitions(
                skeleton,
                table,
                workload,
                target_points_per_cell=self.target_points_per_cell,
                max_cells=self.max_cells,
                seed=self.seed,
            )
            self._config = AugmentedGridConfig(
                skeleton=skeleton, partitions=partitions, max_cells=self.max_cells
            )

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        assert self._config is not None
        self.grid = AugmentedGrid(self._config)
        return self.grid.fit(table)

    def _ranges_for_query(self, query: Query) -> Sequence[RowRange]:
        assert self.grid is not None
        return self.grid.ranges_for_query(query, offset=0)

    def index_size_bytes(self) -> int:
        return self.grid.index_size_bytes() if self.grid is not None else 0

    @property
    def num_cells(self) -> int:
        """Total number of grid cells (the Flood row of Table 4)."""
        return self.grid.num_cells if self.grid is not None else 0

    def describe(self) -> dict:
        info = super().describe()
        if self.grid is not None:
            info.update(
                {
                    "num_cells": self.grid.num_cells,
                    "partitions": dict(self.grid.config.partitions),
                }
            )
        return info
