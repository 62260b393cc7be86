"""Workload profiling: per-dimension filter frequency, selectivity, and skew.

Before committing to an index layout it is useful to know *why* a particular
layout will help: which dimensions the workload actually filters, how
selective those filters are, and whether the query mass is spread uniformly
over a dimension's domain or concentrated in a hot region (the query skew of
§4.2.1).  Tsunami's optimizer consumes this information implicitly; this
module exposes it explicitly so users (and the CLI / examples) can inspect a
workload the same way the index does.

The skew number reported per dimension is a ranking signal, not the Grid
Tree's ``Skew_i``.  Per query type it histograms the query mass over
:data:`NUM_BINS` equal-width bins of the dimension's full domain, normalizes the
histogram to total one, and takes its Earth Mover's Distance to the uniform
histogram (:func:`~repro.stats.emd.earth_movers_distance`); the types' values
are summed (§4.3.1).  That equals ``NUM_BINS / (the type's query mass)``
times the Grid Tree's per-type skew (:func:`repro.core.skew.mass_emd`, in
units of query mass), and it always uses equal-width bins, where the Grid
Tree uses one bin per distinct value when a dimension has at most
``NUM_BINS`` of them.  So it reads several times the Grid Tree's root skew
(5.1-5.7x on every dimension of taxi and perfmon at 20k rows and 25 queries
per type), and it compares dimensions with each other, not with Grid Tree
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.query import Query
from repro.query.selectivity import dimension_selectivity
from repro.query.workload import Workload
from repro.stats.emd import earth_movers_distance, uniform_like
from repro.stats.histogram import query_histogram
from repro.storage.table import Table

#: Equal-width bins per dimension of the skew histograms.
NUM_BINS = 128
#: Rows of the table the selectivities are estimated on.
SAMPLE_ROWS = 50_000
#: Seed of that row sample.
SEED = 7


@dataclass(frozen=True)
class DimensionProfile:
    """How one dimension is used by a workload."""

    dimension: str
    filter_frequency: float
    equality_fraction: float
    avg_selectivity: float
    skew: float

    def as_row(self) -> dict:
        """Flat representation for text tables."""
        return {
            "dimension": self.dimension,
            "filtered by": f"{self.filter_frequency:.0%} of queries",
            "equality filters": f"{self.equality_fraction:.0%}",
            "avg selectivity": f"{self.avg_selectivity:.3%}",
            "skew": round(self.skew, 3),
        }


@dataclass(frozen=True)
class WorkloadProfile:
    """A per-dimension breakdown of a workload against a table.

    Each dimension's ``skew`` is the sum over query types of the EMD between
    the type's query-mass histogram, normalized to one, and the uniform one
    (see the module docstring): ``NUM_BINS / type mass`` times the Grid
    Tree's ``mass_emd``, over equal-width bins only.
    """

    table_name: str
    num_queries: int
    num_query_types: int
    dimensions: tuple[DimensionProfile, ...]

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, table: Table, workload: Workload) -> "WorkloadProfile":
        """Profile ``workload`` against ``table``.

        Selectivities are estimated on a row sample of at most
        :data:`SAMPLE_ROWS` rows; skew uses :data:`NUM_BINS` equal-width bins
        per dimension and is summed over query types as in §4.3.1.
        """
        if len(workload) == 0:
            raise ValueError("cannot profile an empty workload")
        sample = table
        if table.num_rows > SAMPLE_ROWS:
            sample = table.sample_rows(SAMPLE_ROWS, np.random.default_rng(SEED))

        types = workload.by_type()
        profiles = []
        for dimension in table.column_names:
            filtering = [q for q in workload if q.predicate_for(dimension) is not None]
            if not filtering:
                continue
            equality = sum(
                1 for q in filtering if q.predicate_for(dimension).width() == 1
            )
            selectivities = [
                dimension_selectivity(sample, dimension, *q.predicate_for(dimension).bounds)
                for q in filtering
            ]
            profiles.append(
                DimensionProfile(
                    dimension=dimension,
                    filter_frequency=len(filtering) / len(workload),
                    equality_fraction=equality / len(filtering),
                    avg_selectivity=float(np.mean(selectivities)),
                    skew=cls._dimension_skew(table, types, dimension),
                )
            )
        profiles.sort(key=lambda profile: (-profile.filter_frequency, profile.dimension))
        return cls(
            table_name=table.name,
            num_queries=len(workload),
            num_query_types=len(types),
            dimensions=tuple(profiles),
        )

    @staticmethod
    def _dimension_skew(
        table: Table, types: dict[int | None, list[Query]], dimension: str
    ) -> float:
        """Per-type EMD of normalized query mass to uniform, summed over types.

        Not the Grid Tree's ``Skew_i(Q, 0, X_i)``: see the module docstring.
        """
        low, high = table.bounds(dimension)
        domain_high = float(high) + 1.0
        total = 0.0
        for queries in types.values():
            intervals = [
                (float(q.predicate_for(dimension).low), float(q.predicate_for(dimension).high))
                for q in queries
                if q.predicate_for(dimension) is not None
            ]
            if not intervals:
                continue
            histogram = query_histogram(intervals, float(low), domain_high, num_bins=NUM_BINS)
            total += earth_movers_distance(histogram.counts, uniform_like(histogram.counts))
        return total

    # -- reporting ----------------------------------------------------------------

    def profile_for(self, dimension: str) -> DimensionProfile | None:
        """The profile of one dimension, or ``None`` if no query filters it."""
        for profile in self.dimensions:
            if profile.dimension == dimension:
                return profile
        return None

    def describe(self) -> str:
        """Multi-line text report (one row per filtered dimension)."""
        header = (
            f"workload over {self.table_name!r}: {self.num_queries} queries, "
            f"{self.num_query_types} types"
        )
        if not self.dimensions:
            return header + "\n(no dimension is filtered)"
        rows = [profile.as_row() for profile in self.dimensions]
        columns = list(rows[0].keys())
        widths = {
            column: max(len(column), *(len(str(row[column])) for row in rows))
            for column in columns
        }
        lines = [
            header,
            "  ".join(column.ljust(widths[column]) for column in columns),
            "  ".join("-" * widths[column] for column in columns),
        ]
        lines.extend(
            "  ".join(str(row[column]).ljust(widths[column]) for column in columns)
            for row in rows
        )
        return "\n".join(lines)

