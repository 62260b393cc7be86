"""Tests for repro.query.predicates, repro.query.query, and repro.query.engine."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.query.engine import execute_full_scan
from repro.query.predicates import EqualityPredicate, RangePredicate
from repro.query.query import Query
from repro.storage.table import Table


class TestPredicates:
    def test_range_bounds(self):
        predicate = RangePredicate("x", 5, 10)
        assert predicate.bounds == (5, 10)
        assert predicate.width() == 6

    def test_range_inverted_rejected(self):
        with pytest.raises(QueryError):
            RangePredicate("x", 10, 5)

    def test_equality_is_unit_range(self):
        predicate = EqualityPredicate("x", 7)
        assert predicate.bounds == (7, 7)
        assert predicate.width() == 1

    def test_matches_vectorized(self):
        predicate = RangePredicate("x", 2, 4)
        mask = predicate.matches(np.array([1, 2, 3, 4, 5]))
        assert mask.tolist() == [False, True, True, True, False]


class TestQueryConstruction:
    def test_from_ranges_builds_predicates(self):
        query = Query.from_ranges({"x": (1, 5), "y": (3, 3)})
        assert query.num_filtered_dimensions == 2
        assert isinstance(query.predicate_for("y"), EqualityPredicate)

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(QueryError):
            Query(predicates=(RangePredicate("x", 0, 1), RangePredicate("x", 2, 3)))

    def test_sum_requires_column(self):
        with pytest.raises(QueryError):
            Query.from_ranges({"x": (0, 1)}, aggregate="sum")

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Query.from_ranges({"x": (0, 1)}, aggregate="median")

    def test_from_user_values_uses_encodings(self):
        table = Table.from_dict("t", {"price": [1.25, 2.50, 9.99], "mode": ["air", "rail", "air"]})
        query = Query.from_user_values(table, {"price": (1.0, 3.0), "mode": ("air", "air")})
        assert query.filters()["price"] == (100, 300)
        assert query.filters()["mode"] == (0, 0)


class TestQueryAccessors:
    def test_filters_dict(self):
        query = Query.from_ranges({"x": (1, 5)})
        assert query.filters() == {"x": (1, 5)}

    def test_with_type(self):
        query = Query.from_ranges({"x": (1, 5)})
        assert query.with_type(3).query_type == 3
        assert query.query_type is None

    def test_intersects_box(self):
        query = Query.from_ranges({"x": (10, 20)})
        assert query.intersects_box({"x": (15, 30)})
        assert query.intersects_box({"x": (0, 10)})
        assert not query.intersects_box({"x": (21, 30)})
        assert query.intersects_box({"y": (0, 1)})  # unfiltered dims never exclude


class TestFullScan:
    def test_count_matches_numpy(self):
        rng = np.random.default_rng(3)
        table = Table.from_arrays("t", {"a": rng.integers(0, 100, 1000), "b": rng.integers(0, 100, 1000)})
        query = Query.from_ranges({"a": (10, 40), "b": (50, 99)})
        value, stats = execute_full_scan(table, query)
        a, b = table.values("a"), table.values("b")
        expected = int(np.count_nonzero((a >= 10) & (a <= 40) & (b >= 50) & (b <= 99)))
        assert value == expected
        assert stats.points_scanned == 1000

    def test_sum_aggregate(self):
        table = Table.from_arrays("t", {"a": np.array([1, 2, 3]), "b": np.array([10, 20, 30])})
        query = Query.from_ranges({"a": (2, 3)}, aggregate="sum", aggregate_column="b")
        value, _ = execute_full_scan(table, query)
        assert value == 50
