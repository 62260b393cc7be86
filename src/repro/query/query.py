"""The d-dimensional range query used throughout the reproduction.

A :class:`Query` is a conjunction of per-dimension predicates (a hyper-
rectangle in data space) together with an aggregation (§2).  All bounds are
expressed in the storage domain (64-bit integers); helpers exist to construct
queries from user-facing values via the table's column encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.common.errors import QueryError
from repro.query.predicates import EqualityPredicate, Predicate, RangePredicate
from repro.storage.table import Table

AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Query:
    """A conjunctive range query with a single aggregation.

    Parameters
    ----------
    predicates:
        The per-dimension filters; at most one predicate per dimension.
    aggregate:
        One of :data:`AGGREGATES`; defaults to ``count`` as in the paper's
        evaluation (§6.2: "All queries perform a COUNT aggregation").
    aggregate_column:
        Column to aggregate over; required for non-count aggregates.
    query_type:
        Optional label identifying which query *type* (template) generated
        this query (§4.3.1); ``None`` when unknown.
    """

    predicates: tuple[Predicate, ...]
    aggregate: str = "count"
    aggregate_column: str | None = None
    query_type: int | None = None

    def __post_init__(self) -> None:
        if self.aggregate not in AGGREGATES:
            raise QueryError(f"unsupported aggregate {self.aggregate!r}")
        if self.aggregate != "count" and self.aggregate_column is None:
            raise QueryError(f"aggregate {self.aggregate!r} requires aggregate_column")
        dims = [p.dimension for p in self.predicates]
        if len(set(dims)) != len(dims):
            raise QueryError(f"query has duplicate predicates over dimensions {dims}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ranges(
        cls,
        ranges: Mapping[str, tuple[int, int]],
        aggregate: str = "count",
        aggregate_column: str | None = None,
        query_type: int | None = None,
    ) -> "Query":
        """Build a query from ``{dimension: (low, high)}`` storage-unit bounds."""
        predicates = []
        for dim, (low, high) in ranges.items():
            if low == high:
                predicates.append(EqualityPredicate(dim, int(low)))
            else:
                predicates.append(RangePredicate(dim, int(low), int(high)))
        return cls(
            predicates=tuple(predicates),
            aggregate=aggregate,
            aggregate_column=aggregate_column,
            query_type=query_type,
        )

    @classmethod
    def from_user_values(
        cls,
        table: Table,
        ranges: Mapping[str, tuple[object, object]],
        aggregate: str = "count",
        aggregate_column: str | None = None,
        query_type: int | None = None,
    ) -> "Query":
        """Build a query from user-facing bounds, converting via column encodings."""
        converted = {}
        for dim, (low, high) in ranges.items():
            column = table.column(dim)
            converted[dim] = (column.to_storage(low), column.to_storage(high))
        return cls.from_ranges(
            converted,
            aggregate=aggregate,
            aggregate_column=aggregate_column,
            query_type=query_type,
        )

    # -- accessors -------------------------------------------------------------

    @property
    def filtered_dimensions(self) -> tuple[str, ...]:
        """Names of the dimensions this query filters, in predicate order."""
        return tuple(p.dimension for p in self.predicates)

    @property
    def num_filtered_dimensions(self) -> int:
        """Number of dimensions with a filter predicate."""
        return len(self.predicates)

    def filters(self) -> dict[str, tuple[int, int]]:
        """Return ``{dimension: (low, high)}`` inclusive storage-unit bounds."""
        return {p.dimension: p.bounds for p in self.predicates}

    def predicate_for(self, dimension: str) -> Predicate | None:
        """Return this query's predicate over ``dimension``, if any."""
        for predicate in self.predicates:
            if predicate.dimension == dimension:
                return predicate
        return None

    def with_type(self, query_type: int) -> "Query":
        """Return a copy of the query labelled with ``query_type``."""
        return Query(
            predicates=self.predicates,
            aggregate=self.aggregate,
            aggregate_column=self.aggregate_column,
            query_type=query_type,
        )

    def intersects_box(
        self, box: Mapping[str, tuple[int, int]]
    ) -> bool:
        """Whether this query's rectangle intersects an axis-aligned box.

        Dimensions missing from either side are treated as unbounded.
        """
        for predicate in self.predicates:
            if predicate.dimension not in box:
                continue
            low, high = box[predicate.dimension]
            if predicate.high < low or predicate.low > high:
                return False
        return True
