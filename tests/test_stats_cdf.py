"""Tests for repro.stats.cdf."""

import numpy as np
import pytest

from repro.common.errors import IndexBuildError
from repro.stats.cdf import ConditionalCDF, EmpiricalCDF


class TestEmpiricalCDF:
    def test_monotone_and_bounded(self):
        values = np.random.default_rng(0).integers(0, 1000, 5000)
        cdf = EmpiricalCDF(values)
        xs = np.linspace(-100, 1100, 50)
        evaluations = [cdf.evaluate(float(x)) for x in xs]
        assert all(0.0 <= e <= 1.0 for e in evaluations)
        assert all(a <= b + 1e-12 for a, b in zip(evaluations, evaluations[1:]))

    def test_extremes(self):
        cdf = EmpiricalCDF(np.arange(100))
        assert cdf.evaluate(-1) == 0.0
        assert cdf.evaluate(99) == 1.0
        assert cdf.evaluate(1000) == 1.0

    def test_equal_depth_partitions(self):
        values = np.arange(10_000)
        cdf = EmpiricalCDF(values)
        partitions = cdf.partitions_of(values, 10)
        counts = np.bincount(partitions, minlength=10)
        # Equal-depth up to quantization noise.
        assert counts.min() > 800 and counts.max() < 1200

    def test_partition_of_range_consistency(self):
        values = np.random.default_rng(1).normal(0, 100, 4000).astype(np.int64)
        cdf = EmpiricalCDF(values)
        first, last = cdf.partition_range(-50, 50, 8)
        assert first == cdf.partition_of(-50, 8)
        assert last == cdf.partition_of(50, 8)
        assert first <= last

    def test_partition_bounds(self):
        cdf = EmpiricalCDF(np.arange(100))
        assert cdf.partition_of(99, 4) == 3
        assert cdf.partition_of(0, 4) == 0

    def test_knot_compression(self):
        values = np.random.default_rng(2).integers(0, 10_000, 50_000)
        compact = EmpiricalCDF(values, max_knots=64)
        exact = EmpiricalCDF(values, max_knots=100_000)
        xs = np.linspace(0, 10_000, 200)
        errors = np.abs(compact.evaluate_many(xs) - exact.evaluate_many(xs))
        assert errors.max() < 0.05
        assert compact.size_bytes() < exact.size_bytes()

    def test_empty_rejected(self):
        with pytest.raises(IndexBuildError):
            EmpiricalCDF(np.array([]))

    def test_invalid_partition_count(self):
        cdf = EmpiricalCDF(np.arange(10))
        with pytest.raises(ValueError):
            cdf.partition_of(5, 0)

    def test_constant_values(self):
        cdf = EmpiricalCDF(np.full(100, 7))
        assert cdf.partition_of(7, 4) in (0, 3)
        assert cdf.evaluate(6) == 0.0


class TestConditionalCDF:
    def _make(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 1000, 20_000)
        y = x * 2 + rng.integers(-10, 11, 20_000)
        x_cdf = EmpiricalCDF(x)
        x_partitions = x_cdf.partitions_of(x, 8)
        return x, y, x_partitions, ConditionalCDF(x_partitions, y, 8)

    def test_partitions_are_equal_depth_within_base(self):
        x, y, x_partitions, conditional = self._make()
        y_partitions = conditional.partitions_of(y, x_partitions, 4)
        for base in range(8):
            counts = np.bincount(y_partitions[x_partitions == base], minlength=4)
            assert counts.min() > 0.5 * counts.mean()

    def test_staggered_boundaries_on_correlated_data(self):
        # With y ~ 2x, the conditional median of y given the lowest x partition
        # must be far below the conditional median given the highest partition.
        _, y, x_partitions, conditional = self._make()
        low_model = conditional.model_for(0)
        high_model = conditional.model_for(7)
        median_low = np.quantile(y[x_partitions == 0], 0.5)
        assert low_model.evaluate(float(median_low)) > 0.4
        assert high_model.evaluate(float(median_low)) == 0.0

    def test_partition_range_given_base(self):
        _, y, x_partitions, conditional = self._make()
        first, last = conditional.partition_range(float(y.min()), float(y.max()), 3, 4)
        assert (first, last) == (0, 3)

    def test_invalid_base_partition(self):
        _, _, _, conditional = self._make()
        with pytest.raises(ValueError):
            conditional.model_for(99)

    def test_empty_base_partition_falls_back_to_marginal(self):
        y = np.arange(100)
        base = np.zeros(100, dtype=np.int64)  # partition 1 is empty
        conditional = ConditionalCDF(base, y, 2)
        assert conditional.model_for(1).evaluate(50) == pytest.approx(
            EmpiricalCDF(y).evaluate(50), abs=0.05
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(IndexBuildError):
            ConditionalCDF(np.zeros(5, dtype=np.int64), np.arange(4), 2)

    def test_size_bytes_positive(self):
        _, _, _, conditional = self._make()
        assert conditional.size_bytes() > 0
