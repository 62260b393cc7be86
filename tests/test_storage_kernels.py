"""Tests for repro.storage.kernels and the fused scan paths that use them.

The fused filter→aggregate kernels must be *bit-identical* to the
materializing reference (``values[mask]`` then a reduction): the differential
tests here run both over every aggregate and over empty/exact/boundary/inexact
ranges on mixed narrow dtypes.  The bytes-accounting tests pin the logical
``values_scanned``/``bytes_scanned`` counters the cost model and benchmark
gates rely on.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.kernels import fused_count, fused_max, fused_min, fused_sum
from repro.storage.scan import RowRange, ScanExecutor, ScanStats
from repro.storage.table import Table

DTYPES = (np.uint8, np.int16, np.int32, np.int64)


class TestFusedKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sum_matches_materialized(self, dtype):
        rng = np.random.default_rng(11)
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, 500, dtype=np.int64).astype(dtype)
        mask = rng.random(500) < 0.3
        assert fused_sum(values, mask) == int(values[mask].astype(np.int64).sum())

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_min_max_match_materialized(self, dtype):
        rng = np.random.default_rng(12)
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, 500, dtype=np.int64).astype(dtype)
        mask = rng.random(500) < 0.3
        if not mask.any():
            mask[0] = True
        assert fused_min(values, mask) == int(values[mask].min())
        assert fused_max(values, mask) == int(values[mask].max())

    def test_count(self):
        mask = np.array([True, False, True, True, False])
        assert fused_count(mask) == 3
        assert fused_count(np.zeros(5, dtype=bool)) == 0

    def test_none_mask_reduces_whole_slice(self):
        values = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        assert fused_sum(values) == 14
        assert fused_min(values) == 1
        assert fused_max(values) == 5

    def test_sum_empty_mask_is_zero(self):
        values = np.arange(10, dtype=np.int16)
        assert fused_sum(values, np.zeros(10, dtype=bool)) == 0

    def test_sum_does_not_overflow_narrow_dtype(self):
        # 1000 values of 200 overflow uint8 (and int16) partial sums; the
        # kernel must accumulate in int64 like the materialized reference.
        values = np.full(1000, 200, dtype=np.uint8)
        mask = np.ones(1000, dtype=bool)
        assert fused_sum(values, mask) == 200_000

    def test_int64_extremes_are_exact(self):
        info = np.iinfo(np.int64)
        values = np.array([info.min, info.max], dtype=np.int64)
        assert fused_min(values, np.array([True, False])) == info.min
        assert fused_max(values, np.array([False, True])) == info.max


def reference_execute(table, ranges, filters, aggregate, aggregate_column):
    """The pre-fusion scan: materialize ``values[mask]`` per range, reduce,
    and accumulate per-range partials in range order.

    Returns the value and the range-by-range work counters: every inexact
    range charges its filter columns, and the aggregate column is charged
    for exact ranges and for inexact ranges with a match.
    """
    stats = ScanStats(cell_ranges=len(ranges), dims_accessed=len(filters))
    filter_bytes = sum(table.column(dim).itemsize for dim in filters)
    count = 0
    total = 0.0
    minimum = None
    maximum = None
    for row_range in ranges:
        start, stop = row_range.start, row_range.stop
        length = stop - start
        mask = np.ones(length, dtype=bool)
        if not row_range.exact:
            stats.points_scanned += length
            stats.values_scanned += length * len(filters)
            stats.bytes_scanned += length * filter_bytes
            for dim, (low, high) in filters.items():
                values = table.values(dim)[start:stop]
                mask &= (values >= low) & (values <= high)
        elif aggregate != "count":
            stats.points_scanned += length
        matched = int(np.count_nonzero(mask))
        count += matched
        stats.rows_matched += matched
        if aggregate == "count" or aggregate_column is None or matched == 0:
            continue
        stats.values_scanned += length
        stats.bytes_scanned += length * table.column(aggregate_column).itemsize
        selected = table.values(aggregate_column)[start:stop][mask].astype(np.int64)
        if aggregate in {"sum", "avg"}:
            total += float(selected.sum())
        if aggregate == "min":
            candidate = float(selected.min())
            minimum = candidate if minimum is None else min(minimum, candidate)
        if aggregate == "max":
            candidate = float(selected.max())
            maximum = candidate if maximum is None else max(maximum, candidate)
    if aggregate == "count":
        return float(count), stats
    if aggregate == "sum":
        return total, stats
    if count == 0:
        return float("nan"), stats
    if aggregate == "avg":
        return total / count, stats
    return (minimum if aggregate == "min" else maximum), stats


def make_mixed_table() -> Table:
    """Four columns spanning all four storage dtypes."""
    rng = np.random.default_rng(77)
    num_rows = 2_000
    return Table.from_arrays(
        "mixed",
        {
            "tiny": rng.integers(0, 200, num_rows),  # uint8
            "small": rng.integers(-30_000, 30_000, num_rows),  # int16
            "wide": rng.integers(-(2**30), 2**30, num_rows),  # int32
            "huge": rng.integers(-(2**60), 2**60, num_rows),  # int64
        },
    )


#: One shared (never mutated) table for the property-based cases.
MIXED = make_mixed_table()
COLUMNS = ("tiny", "small", "wide", "huge")
AGGREGATES = ("count", "sum", "avg", "min", "max")


@st.composite
def scan_cases(draw):
    """1-40 sorted, non-overlapping ranges of mixed exactness, 0-3 filters, one aggregate."""
    num_ranges = draw(st.integers(min_value=1, max_value=40))
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=MIXED.num_rows),
                min_size=2 * num_ranges,
                max_size=2 * num_ranges,
            )
        )
    )
    exact = draw(st.lists(st.booleans(), min_size=num_ranges, max_size=num_ranges))
    ranges = [
        RowRange(cuts[2 * i], cuts[2 * i + 1], exact=exact[i]) for i in range(num_ranges)
    ]
    filters = {}
    for dim in draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=3)):
        low_value, high_value = MIXED.bounds(dim)
        span = high_value - low_value
        # Narrow filters (down to equality) leave many inexact ranges with
        # no match; bounds may also fall outside the column's domain.
        low = draw(st.integers(min_value=low_value - span // 8, max_value=high_value))
        width = draw(st.sampled_from([0, 1, span // 100, span // 4, span]))
        filters[dim] = (low, low + width)
    aggregate = draw(st.sampled_from(AGGREGATES))
    column = None if aggregate == "count" else draw(st.sampled_from(COLUMNS))
    return ranges, filters, aggregate, column


@pytest.fixture()
def mixed_table() -> Table:
    return make_mixed_table()


class TestFusedExecutorDifferential:
    def cases(self, table):
        """(ranges, filters) pairs covering empty/exact/boundary/inexact."""
        n = table.num_rows
        tiny = table.values("tiny")
        low, high = int(tiny.min()), int(tiny.max())
        return [
            # inexact ranges, mid-selectivity filter
            ([RowRange(0, n)], {"tiny": (50, 150)}),
            # multi-dimensional filter mixing dtypes
            ([RowRange(0, n)], {"tiny": (0, 120), "small": (-10_000, 10_000)}),
            # empty match
            ([RowRange(0, n)], {"tiny": (500, 600)}),
            # exact range: no filter evaluation at all
            ([RowRange(0, n // 2, exact=True)], {"tiny": (500, 600)}),
            # boundary: filter bounds equal to the column bounds (all match)
            ([RowRange(0, n)], {"tiny": (low, high)}),
            # boundary: single-value equality filter
            ([RowRange(0, n)], {"tiny": (low, low)}),
            # mixed exact + inexact ranges
            (
                [RowRange(0, 100, exact=True), RowRange(500, 900), RowRange(1500, n)],
                {"small": (-5_000, 5_000)},
            ),
            # zero-length range list
            ([], {"tiny": (0, 200)}),
        ]

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("column", COLUMNS)
    def test_bit_identical_to_materialized_reference(
        self, mixed_table, aggregate, column
    ):
        executor = ScanExecutor(mixed_table)
        aggregate_column = None if aggregate == "count" else column
        for ranges, filters in self.cases(mixed_table):
            expected, _ = reference_execute(
                mixed_table, ranges, filters, aggregate, aggregate_column
            )
            value, _ = executor.execute(ranges, filters, aggregate, aggregate_column)
            if np.isnan(expected):
                assert np.isnan(value)
            else:
                # Bit-identical, not approximately equal.
                assert value == expected, (aggregate, column, ranges, filters)

    def test_no_row_materialization_on_aggregate_path(self, mixed_table):
        # The fused executor must not allocate values[mask]; as a proxy, the
        # aggregate over a full inexact range allocates nothing proportional
        # to matched rows — verified here by equality on a selective filter
        # whose materialized copy would differ in dtype handling.
        executor = ScanExecutor(mixed_table)
        n = mixed_table.num_rows
        value, stats = executor.execute(
            [RowRange(0, n)], {"tiny": (0, 10)}, "sum", "huge"
        )
        expected, _ = reference_execute(
            mixed_table, [RowRange(0, n)], {"tiny": (0, 10)}, "sum", "huge"
        )
        assert value == expected
        assert stats.rows_matched < n

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scan_cases())
    def test_many_ranges_match_reference_bit_for_bit(self, case):
        """Up to 40 ranges per query, many inexact: the one-pass filter must
        give the range-by-range value bit for bit and every counter."""
        ranges, filters, aggregate, column = case
        value, stats = ScanExecutor(MIXED).execute(ranges, filters, aggregate, column)
        expected, expected_stats = reference_execute(MIXED, ranges, filters, aggregate, column)
        assert struct.pack("<d", value) == struct.pack("<d", expected)
        assert stats == expected_stats


class TestScanBytesAccounting:
    def test_inexact_filter_charges_itemsize(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        n = mixed_table.num_rows
        _, stats = executor.execute([RowRange(0, n)], {"tiny": (0, 100)}, "count")
        # One uint8 filter column over n rows.
        assert stats.values_scanned == n
        assert stats.bytes_scanned == n

    def test_multi_filter_sums_per_column_itemsizes(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        n = mixed_table.num_rows
        _, stats = executor.execute(
            [RowRange(0, n)],
            {"tiny": (0, 200), "small": (-30_000, 30_000), "huge": (-(2**62), 2**62)},
            "count",
        )
        assert stats.values_scanned == 3 * n
        assert stats.bytes_scanned == (1 + 2 + 8) * n

    def test_aggregate_column_charged_at_its_own_width(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        n = mixed_table.num_rows
        _, stats = executor.execute(
            [RowRange(0, n)], {"tiny": (0, 200)}, "sum", "small"
        )
        assert stats.values_scanned == 2 * n  # filter column + aggregate column
        assert stats.bytes_scanned == 1 * n + 2 * n

    def test_exact_count_touches_no_bytes(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        _, stats = executor.execute(
            [RowRange(0, 500, exact=True)], {"tiny": (0, 0)}, "count"
        )
        assert stats.values_scanned == 0
        assert stats.bytes_scanned == 0

    def test_exact_aggregate_charges_only_aggregate_column(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        _, stats = executor.execute(
            [RowRange(0, 500, exact=True)], {"tiny": (0, 0)}, "sum", "wide"
        )
        assert stats.values_scanned == 500
        assert stats.bytes_scanned == 4 * 500  # int32

    def test_int64_baseline_is_eight_bytes_per_value(self):
        rng = np.random.default_rng(5)
        table = Table.from_arrays(
            "wide", {"a": rng.integers(0, 100, 1000), "b": rng.integers(0, 100, 1000)},
            narrow=False,
        )
        assert table.column("a").dtype == np.int64
        executor = ScanExecutor(table)
        _, stats = executor.execute(
            [RowRange(0, 1000)], {"a": (0, 50)}, "sum", "b"
        )
        assert stats.bytes_scanned == 8 * stats.values_scanned

    def test_batch_accounting_matches_singles(self, mixed_table):
        executor = ScanExecutor(mixed_table)
        n = mixed_table.num_rows
        specs = [
            ([RowRange(0, n)], {"tiny": (0, 100)}),
            ([RowRange(0, n)], {"small": (-100, 100)}),
        ]
        batched = executor.execute_batch(
            [r for r, _ in specs], [f for _, f in specs]
        )
        for (ranges, filters), (value, stats) in zip(specs, batched):
            single_value, single_stats = executor.execute(ranges, filters)
            assert value == single_value
            assert stats.values_scanned == single_stats.values_scanned
            assert stats.bytes_scanned == single_stats.bytes_scanned
