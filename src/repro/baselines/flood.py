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
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel
from repro.core.optimizer import GradientDescentOnly, initialize_partitions
from repro.core.skeleton import Skeleton
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: Rows gradient descent samples to evaluate candidate grids.
SAMPLE_ROWS = 20_000
#: Seeds the row sample and the initial partition counts.
SEED = 47


class FloodIndex(ClusteredIndex):
    """A workload-tuned uniform grid with per-dimension CDF models.

    Its grid has at most the Augmented Grid's ``DEFAULT_MAX_CELLS`` cells.
    """

    name = "flood"

    def __init__(
        self,
        cost_model: CostModel | None = None,
        optimizer_iterations: int = 4,
        target_points_per_cell: int = 256,
    ) -> None:
        super().__init__()
        self.cost_model = cost_model or CostModel()
        self.optimizer_iterations = optimizer_iterations
        self.target_points_per_cell = target_points_per_cell
        self.grid: AugmentedGrid | None = None
        self._config: AugmentedGridConfig | None = None
        self.optimizer_result = None

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        dims = list(table.column_names)
        if workload is not None and len(workload) > 0:
            optimizer = GradientDescentOnly(
                cost_model=self.cost_model,
                max_iterations=self.optimizer_iterations,
                naive_init=True,
                target_points_per_cell=self.target_points_per_cell,
                sample_rows=SAMPLE_ROWS,
                seed=SEED,
            )
            try:
                result = optimizer.optimize(table, workload, dimensions=dims)
            except OptimizationError:
                pass  # fall back to the initial partition counts below
            else:
                self.optimizer_result = result
                self._config = result.config
                return
        skeleton = Skeleton.all_independent(dims)
        partitions = initialize_partitions(
            skeleton,
            table,
            workload or Workload([]),
            target_points_per_cell=self.target_points_per_cell,
            seed=SEED,
        )
        self._config = AugmentedGridConfig(skeleton=skeleton, partitions=partitions)

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
