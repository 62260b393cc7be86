"""Tests for the workload profiler (repro.query.profile)."""

import numpy as np
import pytest

from repro.query.profile import DimensionProfile, WorkloadProfile
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


def uniform_table(num_rows: int = 4_000, seed: int = 2) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        "profiled",
        {
            "time": rng.integers(0, 10_000, num_rows),
            "value": rng.integers(0, 1_000, num_rows),
            "flag": rng.integers(0, 4, num_rows),
        },
    )


def skewed_workload(seed: int = 4) -> Workload:
    """Most queries hit the top 10% of ``time``; ``value`` queries are uniform."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(60):
        low = int(rng.integers(9_000, 9_800))
        queries.append(Query.from_ranges({"time": (low, low + 100)}, query_type=0))
    for _ in range(30):
        low = int(rng.integers(0, 900))
        queries.append(Query.from_ranges({"value": (low, low + 50)}, query_type=1))
    for _ in range(10):
        queries.append(Query.from_ranges({"flag": (2, 2)}, query_type=2))
    return Workload(queries, name="skewed")


class TestProfileConstruction:
    def test_only_filtered_dimensions_are_profiled(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        names = {p.dimension for p in profile.dimensions}
        assert names == {"time", "value", "flag"}
        assert profile.num_queries == 100
        assert profile.num_query_types == 3

    def test_filter_frequencies_sum_to_workload_shares(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        assert profile.profile_for("time").filter_frequency == pytest.approx(0.6)
        assert profile.profile_for("value").filter_frequency == pytest.approx(0.3)
        assert profile.profile_for("flag").filter_frequency == pytest.approx(0.1)
        assert profile.profile_for("missing") is None

    def test_equality_fraction_detected(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        assert profile.profile_for("flag").equality_fraction == pytest.approx(1.0)
        assert profile.profile_for("time").equality_fraction == pytest.approx(0.0)

    def test_selectivity_reflects_filter_width(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        # time filters cover ~1% of the domain, flag equality covers ~25%.
        assert profile.profile_for("time").avg_selectivity < 0.05
        assert profile.profile_for("flag").avg_selectivity > 0.15

    def test_skew_identifies_the_hot_dimension(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        assert profile.profile_for("time").skew > profile.profile_for("value").skew
        assert profile.profile_for("time").skew > 0.25

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile.build(uniform_table(), Workload([]))

    def test_unfiltered_workload_has_no_dimension_rows(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, Workload([Query(predicates=())]))
        assert profile.dimensions == ()
        assert "(no dimension is filtered)" in profile.describe()


class TestReporting:
    def test_describe_contains_every_dimension_row(self):
        table = uniform_table()
        profile = WorkloadProfile.build(table, skewed_workload())
        text = profile.describe()
        for name in ("time", "value", "flag"):
            assert name in text
        assert "100 queries" in text

    def test_dimension_profile_row_shape(self):
        row = DimensionProfile(
            dimension="time",
            filter_frequency=0.5,
            equality_fraction=0.0,
            avg_selectivity=0.01,
            skew=1.2,
        ).as_row()
        assert row["dimension"] == "time"
        assert row["skew"] == 1.2
