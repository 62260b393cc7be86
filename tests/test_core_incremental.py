"""Tests for incremental re-optimization (§8 extension, repro.core.incremental)."""

import numpy as np
import pytest
from reference_planner import reference_spans

from repro.common.errors import IndexBuildError
from repro.core.augmented_grid import AugmentedGrid
from repro.core.incremental import IncrementalReoptimizer, RegionShift
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload


def build_index(table, workload) -> TsunamiIndex:
    config = TsunamiConfig(optimizer_iterations=1, optimizer_sample_rows=2_000)
    return TsunamiIndex(config).build(table, workload)


def shifted_workload(seed: int = 77) -> Workload:
    """A workload concentrated on the opposite corner of the data space."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(60):
        low = int(rng.integers(0, 2_000))
        queries.append(Query.from_ranges({"x": (low, low + 200), "z": (500, 999)}, query_type=0))
    for _ in range(20):
        low = int(rng.integers(20_000, 28_000))
        queries.append(Query.from_ranges({"y": (low, low + 800)}, query_type=1))
    return Workload(queries, name="shifted")


class TestConstruction:
    def test_requires_built_index(self):
        with pytest.raises(IndexBuildError):
            IncrementalReoptimizer(TsunamiIndex())

    def test_invalid_parameters_rejected(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        with pytest.raises(ValueError):
            IncrementalReoptimizer(index, shift_threshold=-0.1)
        with pytest.raises(ValueError):
            IncrementalReoptimizer(index, max_regions=0)


class TestShiftScoring:
    def test_shifts_cover_every_region(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index)
        shifts = reoptimizer.region_shifts(shifted_workload())
        assert len(shifts) == len(index._regions)
        assert all(isinstance(shift, RegionShift) for shift in shifts)
        assert all(0.0 <= shift.old_fraction <= 1.0 for shift in shifts)
        assert all(0.0 <= shift.new_fraction <= 1.0 for shift in shifts)

    def test_shifts_sorted_by_decreasing_magnitude(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        shifts = IncrementalReoptimizer(index).region_shifts(shifted_workload())
        magnitudes = [shift.shift for shift in shifts]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_identical_workload_has_no_shift(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index)
        shifts = reoptimizer.region_shifts(index.typed_workload)
        assert all(shift.shift == pytest.approx(0.0) for shift in shifts)


class TestReoptimization:
    def test_noop_below_threshold(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=1.1)
        report = reoptimizer.reoptimize(shifted_workload())
        assert report.regions_reoptimized == ()
        assert report.regions_considered == len(index._regions)

    def test_max_regions_budget_respected(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.0, max_regions=2)
        report = reoptimizer.reoptimize(shifted_workload())
        assert len(report.regions_reoptimized) <= 2

    def test_answers_remain_correct_after_reoptimization(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.01, max_regions=4)
        new_workload = shifted_workload()
        reoptimizer.reoptimize(new_workload)
        for query in list(new_workload)[:25] + list(fresh_workload)[:10]:
            expected, _ = execute_full_scan(index.table, query)
            assert index.execute(query).value == expected

    def test_recorded_workload_is_updated(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.01, max_regions=4)
        new_workload = shifted_workload()
        reoptimizer.reoptimize(new_workload)
        assert len(index.typed_workload) == len(new_workload)
        # A second pass against the same workload should find (almost) nothing
        # left to re-optimize.
        second = reoptimizer.reoptimize(new_workload)
        assert len(second.regions_reoptimized) <= 1

    def test_report_describes_itself(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        report = IncrementalReoptimizer(index, shift_threshold=0.0, max_regions=1).reoptimize(
            shifted_workload()
        )
        text = report.describe()
        assert "regions" in text
        assert report.seconds >= 0

    def test_workless_pass_does_not_advance_baseline(self, fresh_table, fresh_workload):
        """Selected-but-skipped passes must not reset the comparison baseline.

        An empty observed workload makes every previously-hit region's share
        drop (so regions are selected), but no region has queries to optimize
        for, so zero regions are re-optimized — the recorded workload must
        stay put or repeated sub-threshold shifts would never accumulate.
        """
        index = build_index(fresh_table, fresh_workload)
        baseline = index.typed_workload
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.05)
        report = reoptimizer.reoptimize(Workload([], name="empty"))
        assert report.regions_reoptimized == ()
        # The pass really did select regions (the bug path, not the early return).
        assert any(shift.shift >= 0.05 for shift in report.shifts)
        assert index.typed_workload is baseline

    def test_failed_pass_leaves_the_old_layout_serving(self, fresh_table, fresh_workload, monkeypatch):
        """A pass that raises part-way must install none of its regions.

        The second region's fit raises; the first region's new grid must not
        be installed over rows that were never re-sorted into its cell order.
        """
        index = build_index(fresh_table, fresh_workload)
        grids = [region.grid for region in index._regions]
        fit = AugmentedGrid.fit
        calls = []

        def failing_fit(grid, table, model_cache=None):
            calls.append(table.num_rows)
            if len(calls) == 2:
                raise RuntimeError("injected fit failure")
            return fit(grid, table, model_cache)

        monkeypatch.setattr(AugmentedGrid, "fit", failing_fit)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.01, max_regions=4)
        with pytest.raises(RuntimeError, match="injected"):
            reoptimizer.reoptimize(shifted_workload())
        monkeypatch.undo()
        assert all(region.grid is grid for region, grid in zip(index._regions, grids))
        for query in list(shifted_workload()) + list(fresh_workload):
            expected, _ = execute_full_scan(index.table, query)
            assert index.execute(query).value == expected

    def test_reoptimized_regions_keep_planner_and_plan_cache(self, fresh_table, fresh_workload):
        """A repaired region must not silently lose the serving fast path.

        Its rebuilt grid keeps a plan cache, and its planner still plans span
        for span like the per-cell reference planner.
        """
        index = build_index(fresh_table, fresh_workload)
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.01, max_regions=4)
        workload = shifted_workload()
        report = reoptimizer.reoptimize(workload)
        assert report.regions_reoptimized  # sanity: the pass did work
        for region in index._regions:
            if region.node.region_id in report.regions_reoptimized:
                assert region.grid.plan_cache is not None
                for query in list(workload)[::10]:
                    spans, _ = region.grid.plan(query)
                    assert spans == reference_spans(region.grid, query)

    def test_incremental_touches_fewer_rows_than_full_rebuild(self, fresh_table, fresh_workload):
        index = build_index(fresh_table, fresh_workload)
        rows_before = {
            region.node.region_id: np.array(
                index.table.values("x")[region.row_offset : region.row_offset + region.num_rows]
            )
            for region in index._regions
        }
        reoptimizer = IncrementalReoptimizer(index, shift_threshold=0.05, max_regions=2)
        report = reoptimizer.reoptimize(shifted_workload())
        untouched = [
            region
            for region in index._regions
            if region.node.region_id not in report.regions_reoptimized
        ]
        # Rows of regions that were not re-optimized keep their exact physical order.
        for region in untouched:
            after = index.table.values("x")[
                region.row_offset : region.row_offset + region.num_rows
            ]
            assert np.array_equal(after, rows_before[region.node.region_id])
