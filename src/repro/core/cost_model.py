"""The analytic query cost model (§5.3.1).

``Time = w0 * (# cell ranges) + w1 * (# scanned points) * (# filtered dims)``

* The ``w0`` term charges for looking up the first and last cell of each
  contiguous cell range and for the cache miss of jumping to a new location in
  physical storage.
* The ``w1`` term charges for scanning one dimension of one point; a query
  that filters ``k`` dimensions must read ``k`` column values per scanned
  point in the column store.

Aggregation time is deliberately not modelled — it is a fixed cost paid by
every index (§5.3.1).  The default weights are in abstract work units; use
:meth:`CostModel.calibrate` to fit them to measured wall-clock times on a
particular machine, which is how the Fig. 12b "predicted vs actual" comparison
is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class QueryPlanFeatures:
    """The cost-model features of one query plan.

    ``points_scanned`` matches the field name of
    :class:`repro.storage.scan.ScanStats`.
    """

    num_cell_ranges: int
    points_scanned: int
    num_filtered_dimensions: int

    @property
    def scan_work(self) -> int:
        """The scan term before weighting."""
        return self.points_scanned * max(self.num_filtered_dimensions, 1)


@dataclass(frozen=True)
class CostModel:
    """Linear cost model with weights ``w0`` (per cell range) and ``w1`` (per value)."""

    w0: float = 50.0
    w1: float = 1.0

    def predict(self, features: QueryPlanFeatures) -> float:
        """Predicted cost of a single query plan."""
        return self.w0 * features.num_cell_ranges + self.w1 * features.scan_work

    def predict_average(self, features: Sequence[QueryPlanFeatures]) -> float:
        """Predicted average cost over a workload's query plans."""
        if not features:
            return 0.0
        return sum(self.predict(f) for f in features) / len(features)

    @classmethod
    def calibrate(
        cls,
        features: Sequence[QueryPlanFeatures],
        measured_times: Sequence[float],
    ) -> "CostModel":
        """Fit ``(w0, w1)`` to measured per-query times by least squares.

        Weights are clamped to be non-negative; degenerate inputs (fewer than
        two observations, or collinear features) fall back to a scan-only
        model scaled to the observed mean.
        """
        if len(features) != len(measured_times):
            raise ValueError("features and measured_times must have the same length")
        if len(features) < 2:
            return cls()
        design = np.array(
            [[f.num_cell_ranges, f.scan_work] for f in features], dtype=np.float64
        )
        target = np.asarray(measured_times, dtype=np.float64)
        solution, residuals, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < 2:
            scan_work = design[:, 1]
            denominator = float(scan_work.sum())
            w1 = float(target.sum() / denominator) if denominator > 0 else 1.0
            return cls(w0=0.0, w1=max(w1, 0.0))
        w0, w1 = (max(float(value), 0.0) for value in solution)
        return cls(w0=w0, w1=w1)

    def relative_error(
        self,
        features: Sequence[QueryPlanFeatures],
        measured_times: Sequence[float],
    ) -> float:
        """Mean absolute relative error of predictions against measurements."""
        if not features:
            return 0.0
        errors = []
        for feature, measured in zip(features, measured_times):
            if measured <= 0:
                continue
            errors.append(abs(self.predict(feature) - measured) / measured)
        return float(np.mean(errors)) if errors else 0.0
