"""Compact CDF models used to partition dimensions into equal-depth cells.

Flood partitions every dimension uniformly in its CDF (§2.2); the Augmented
Grid additionally partitions a dimension uniformly in a *conditional* CDF
given another dimension's partition (§5.2.2).  The models here are compact:
they store at most a fixed number of quantile knots and interpolate linearly
between them, which keeps index size proportional to the knot count instead
of the data size.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import IndexBuildError


class EmpiricalCDF:
    """A compact empirical CDF over one dimension's stored values.

    The model stores up to ``max_knots`` quantile knots of the observed
    distribution and evaluates ``CDF(x)`` by linear interpolation, clamped to
    ``[0, 1]``.  With ``p`` partitions, value ``x`` is assigned to partition
    ``min(floor(CDF(x) * p), p - 1)``, which yields approximately equal-depth
    partitions.
    """

    def __init__(self, values: np.ndarray, max_knots: int = 1024) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise IndexBuildError("cannot fit a CDF over an empty value array")
        if max_knots < 2:
            raise ValueError(f"max_knots must be >= 2, got {max_knots}")
        ordered = np.sort(values)
        self._n = int(ordered.size)
        if ordered.size <= max_knots:
            self._knots = ordered
            self._knot_cdf = (np.arange(1, ordered.size + 1)) / ordered.size
        else:
            quantiles = np.linspace(0.0, 1.0, max_knots)
            self._knots = np.quantile(ordered, quantiles)
            self._knot_cdf = quantiles.copy()
            self._knot_cdf[-1] = 1.0
        self._min = float(ordered[0])
        self._max = float(ordered[-1])

    @property
    def num_values(self) -> int:
        """Number of values the model was fit on."""
        return self._n

    @property
    def domain(self) -> tuple[float, float]:
        """``(min, max)`` of the fitted values."""
        return self._min, self._max

    def evaluate(self, x: float) -> float:
        """Return ``CDF(x)`` in ``[0, 1]``."""
        if x < self._min:
            return 0.0
        if x >= self._max:
            return 1.0
        return float(np.interp(x, self._knots, self._knot_cdf))

    def evaluate_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate`."""
        values = np.asarray(values, dtype=np.float64)
        result = np.interp(values, self._knots, self._knot_cdf)
        result[values < self._min] = 0.0
        result[values >= self._max] = 1.0
        return result

    def partition_of(self, x: float, num_partitions: int) -> int:
        """Partition id of value ``x`` when the dimension has ``num_partitions``."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        index = int(self.evaluate(x) * num_partitions)
        return min(index, num_partitions - 1)

    def partitions_of(self, values: np.ndarray, num_partitions: int) -> np.ndarray:
        """Vectorized :meth:`partition_of`."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        indices = (self.evaluate_many(values) * num_partitions).astype(np.int64)
        return np.minimum(indices, num_partitions - 1)

    def partition_range(
        self, low: float, high: float, num_partitions: int
    ) -> tuple[int, int]:
        """Inclusive partition-id range intersecting the filter ``[low, high]``."""
        first = self.partition_of(low, num_partitions)
        last = self.partition_of(high, num_partitions)
        return first, last

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the model."""
        return int(self._knots.nbytes + self._knot_cdf.nbytes)


class ConditionalCDF:
    """``CDF(Y | X)``: one compact CDF of Y per partition of the base dimension X.

    §5.2.2: "if there are pX and pY partitions over X and Y respectively, we
    implement CDF(Y|X) by storing pX histograms over Y, one for each partition
    in X."  We store one :class:`EmpiricalCDF` per X-partition; empty
    X-partitions fall back to the marginal CDF of Y.
    """

    def __init__(
        self,
        base_partitions: np.ndarray,
        dependent_values: np.ndarray,
        num_base_partitions: int,
        max_knots: int = 64,
    ) -> None:
        base_partitions = np.asarray(base_partitions)
        dependent_values = np.asarray(dependent_values, dtype=np.float64)
        if base_partitions.shape != dependent_values.shape:
            raise IndexBuildError(
                "base partition ids and dependent values must have the same length"
            )
        if num_base_partitions < 1:
            raise ValueError("num_base_partitions must be >= 1")
        self._num_base_partitions = num_base_partitions
        marginal = EmpiricalCDF(dependent_values, max_knots=max_knots)
        self._marginal = marginal
        self._models: list[EmpiricalCDF] = []
        for partition in range(num_base_partitions):
            members = dependent_values[base_partitions == partition]
            if members.size == 0:
                self._models.append(marginal)
            else:
                self._models.append(EmpiricalCDF(members, max_knots=max_knots))

    @property
    def num_base_partitions(self) -> int:
        """Number of partitions of the base dimension."""
        return self._num_base_partitions

    def model_for(self, base_partition: int) -> EmpiricalCDF:
        """The CDF of the dependent dimension within one base partition."""
        if not 0 <= base_partition < self._num_base_partitions:
            raise ValueError(
                f"base partition {base_partition} out of range "
                f"[0, {self._num_base_partitions})"
            )
        return self._models[base_partition]

    def partition_of(self, y: float, base_partition: int, num_partitions: int) -> int:
        """Partition id of dependent value ``y`` given the base partition."""
        return self.model_for(base_partition).partition_of(y, num_partitions)

    def partitions_of(
        self, y_values: np.ndarray, base_partitions: np.ndarray, num_partitions: int
    ) -> np.ndarray:
        """Vectorized partition assignment for (y, base-partition) pairs."""
        y_values = np.asarray(y_values, dtype=np.float64)
        base_partitions = np.asarray(base_partitions)
        result = np.empty(y_values.shape, dtype=np.int64)
        for partition in range(self._num_base_partitions):
            mask = base_partitions == partition
            if not mask.any():
                continue
            result[mask] = self._models[partition].partitions_of(
                y_values[mask], num_partitions
            )
        return result

    def partition_range(
        self, low: float, high: float, base_partition: int, num_partitions: int
    ) -> tuple[int, int]:
        """Inclusive partition-id range of ``[low, high]`` within one base partition."""
        model = self.model_for(base_partition)
        return model.partition_range(low, high, num_partitions)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint (deduplicating the shared marginal)."""
        total = self._marginal.size_bytes()
        for model in self._models:
            if model is not self._marginal:
                total += model.size_bytes()
        return total
