"""Tests for repro.stats.cdf."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IndexBuildError
from repro.stats.cdf import ConditionalCDF, EmpiricalCDF


def interp_partition(model: EmpiricalCDF, value: float, num_partitions: int) -> int:
    """The partition formula the compiled functions must reproduce."""
    return min(int(model.evaluate(value) * num_partitions), num_partitions - 1)


def window(model: EmpiricalCDF, low: float, high: float, num_partitions: int) -> tuple[int, int]:
    """The partitions of ``low`` and ``high``, read off the compiled lists the
    way the planner's windows read them (two bisects)."""
    breaks, ids, _, _ = model.partitioning(num_partitions)
    return ids[bisect_right(breaks, float(low))], ids[bisect_right(breaks, float(high))]


def ulp_neighbours(values: np.ndarray, steps: int) -> np.ndarray:
    """``values`` plus the ``steps`` doubles on either side of each."""
    neighbours = [values]
    down, up = values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        neighbours += [down, up]
    return np.concatenate(neighbours)


@st.composite
def cdf_cases(draw):
    """A column of one of the shapes that stress partition boundaries, a
    knot cap, a partition count and a seed for random probes."""
    kind = draw(
        st.sampled_from(
            ["duplicates", "constant", "negatives", "heavy_tails", "tiny_spread", "billions", "few_rows"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 400))
    if kind == "duplicates":
        values = rng.integers(0, draw(st.integers(1, 12)), size)
    elif kind == "constant":
        values = np.full(size, draw(st.integers(-(10**9), 10**9)))
    elif kind == "negatives":
        values = rng.integers(-(10**6), 10**3, size)
    elif kind == "heavy_tails":
        values = np.round(rng.standard_cauchy(size) * 10**6)
    elif kind == "tiny_spread":
        values = draw(st.floats(-1e3, 1e3)) + rng.integers(0, 40, size) * 1e-12
    elif kind == "billions":
        values = rng.integers(-3 * 10**9, 3 * 10**9, size)
    else:
        values = rng.integers(-1000, 1000, draw(st.integers(1, 8)))
    knots = draw(st.integers(2, 128))
    return values.astype(np.float64), knots, draw(st.integers(1, 300)), rng


class TestCompiledPartitions:
    """Every partition lookup reads a compiled boundary list; it must equal
    ``min(int(evaluate(x) * p), p - 1)`` at every double."""

    @settings(max_examples=150, deadline=None)
    @given(cdf_cases())
    def test_compiled_partitions_equal_the_interp_formula(self, case):
        values, max_knots, num_partitions, rng = case
        model = EmpiricalCDF(values, max_knots=max_knots)
        breaks = np.array(model.partitioning(num_partitions).breaks)
        low, high = model.domain
        probes = np.concatenate(
            [
                ulp_neighbours(np.unique(model._knots), 4),
                ulp_neighbours(breaks, 1),
                rng.uniform(low - 10.0, high + 10.0, 32),
                rng.normal(0.0, 1e12, 8),
                [-np.inf, np.inf, 0.0, -0.0],
            ]
        )
        expected = [interp_partition(model, float(x), num_partitions) for x in probes]
        assert model.partitions_of(probes, num_partitions).tolist() == expected
        assert [window(model, x, x, num_partitions)[0] for x in probes] == expected
        pairs = rng.integers(0, probes.size, (64, 2))
        assert [window(model, probes[a], probes[b], num_partitions) for a, b in pairs] == [
            (expected[a], expected[b]) for a, b in pairs
        ]

        bases = rng.integers(0, 3, values.size)
        conditional = ConditionalCDF(bases, values, 3, max_knots=max_knots)
        probe_bases = rng.integers(0, 3, probes.size)
        assert conditional.partitions_of(probes, probe_bases, num_partitions).tolist() == [
            interp_partition(conditional.model_for(int(base)), float(x), num_partitions)
            for x, base in zip(probes, probe_bases)
        ]

    def test_partition_may_fall_back_at_a_knot(self):
        """Where rounding leaves the interpolating line's end above a knot's
        own CDF value, the formula's partition falls by one at the knot (a
        three-knot slice of a heavy-tailed column's model); the compiled
        function follows it there."""
        model = EmpiricalCDF.__new__(EmpiricalCDF)
        knots = np.array([-33619203.95918368, -16257495.591836736, -12593767.42857143])
        model.__setstate__(
            {
                "_n": 3,
                "_knots": knots,
                "_knot_cdf": np.array([0.01020408163265306, 0.02040816326530612, 0.030612244897959183]),
                "_min": float(knots[0]),
                "_max": float(knots[-1]),
            }
        )
        knot = knots[1]
        around = [np.nextafter(knot, -np.inf), knot, np.nextafter(knot, np.inf)]
        assert [interp_partition(model, float(x), 49) for x in around] == [1, 0, 1]
        assert [window(model, x, x, 49)[0] for x in around] == [1, 0, 1]
        assert model.partitions_of(np.array(around), 49).tolist() == [1, 0, 1]



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

    def test_partition_bounds(self):
        cdf = EmpiricalCDF(np.arange(100))
        assert window(cdf, 0, 99, 4) == (0, 3)

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
        for count in (0, -3):
            with pytest.raises(ValueError):
                cdf.partitioning(count)
            with pytest.raises(ValueError):
                cdf.partitions_of(np.arange(5), count)

    def test_constant_values(self):
        cdf = EmpiricalCDF(np.full(100, 7))
        assert window(cdf, 7, 7, 4)[0] in (0, 3)
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
        assert window(conditional.model_for(3), float(y.min()), float(y.max()), 4) == (0, 3)

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
