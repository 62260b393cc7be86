"""Workload-shift detection (§8, "Data and Workload Shift").

The paper notes that Tsunami re-optimizes quickly but "does not currently have
a way to detect when the workload characteristics have changed sufficiently to
merit re-optimization", and sketches how it could: detect when an existing
query type disappears, a new query type appears, or the relative frequencies
of query types change.  This module implements that detector as an optional
extension.

:class:`WorkloadDriftDetector` is fitted on the workload an index was
optimized for.  Feeding it a window of recently observed queries yields a
:class:`DriftReport` saying whether re-optimization is warranted and why.
Detection works on the same query-type embedding the Grid Tree optimization
uses (per-dimension filter selectivities, §4.3.1), so no extra statistics need
to be maintained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.records import Record
from repro.core.query_types import EPS, cluster_query_types, queries_by_type
from repro.query.query import Query
from repro.query.selectivity import selectivity_vector
from repro.query.workload import Workload
from repro.storage.table import Table

#: Fraction of observed queries matching no known query type above which
#: drift is declared (a "new query type appeared").
NEW_TYPE_THRESHOLD = 0.25
#: Total variation distance between the fitted and observed query-type
#: frequencies above which drift is declared.
FREQUENCY_THRESHOLD = 0.30
#: Rows of the fitted table the selectivity embeddings are estimated on, and
#: the seed of that sample and of query-type clustering.
SAMPLE_ROWS = 20_000
SAMPLE_SEED = 53


@dataclass(frozen=True)
class DriftReport(Record):
    """The detector's verdict on a window of recently observed queries."""

    drifted: bool
    new_type_fraction: float
    disappeared_types: tuple[int, ...]
    frequency_shift: float
    reasons: tuple[str, ...]

    def describe(self) -> str:
        """One-line human-readable summary."""
        if not self.drifted:
            return "no significant workload drift detected"
        return "workload drift detected: " + "; ".join(self.reasons)


@dataclass
class WorkloadDriftDetector:
    """Detects when the observed workload has drifted from the optimized one.

    An observed query is an instance of a known type when its selectivity
    embedding lies within the type-clustering DBSCAN ``eps``
    (:data:`~repro.core.query_types.EPS`) of that type's centroid.
    """

    _table: Table | None = field(default=None, init=False, repr=False)
    _sample: Table | None = field(default=None, init=False, repr=False)
    _type_centroids: dict[int, tuple[tuple[str, ...], np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )
    _type_frequencies: dict[int, float] = field(default_factory=dict, init=False, repr=False)

    # -- fitting -----------------------------------------------------------------

    def fit(self, table: Table, workload: Workload) -> "WorkloadDriftDetector":
        """Learn the query types and their frequencies of the optimized workload."""
        if len(workload) == 0:
            raise ValueError("cannot fit a drift detector on an empty workload")
        self._table = table
        self._sample = table
        if table.num_rows > SAMPLE_ROWS:
            self._sample = table.sample_rows(SAMPLE_ROWS, np.random.default_rng(SAMPLE_SEED))
        typed = workload
        if any(query.query_type is None for query in workload):
            typed = cluster_query_types(table, workload, seed=SAMPLE_SEED)
        groups = queries_by_type(typed)
        total = sum(len(queries) for queries in groups.values())
        self._type_centroids = {}
        self._type_frequencies = {}
        for type_id, queries in groups.items():
            dims, centroid = self._centroid(queries)
            self._type_centroids[type_id] = (dims, centroid)
            self._type_frequencies[type_id] = len(queries) / total
        return self

    def refit(self, workload: Workload, table: Table | None = None) -> "WorkloadDriftDetector":
        """Re-learn the baseline after the index was re-optimized for ``workload``.

        Uses the previously fitted table unless a new one is given (e.g. after
        a delta-buffer merge changed the data).  The lifecycle loop calls this
        so that repeated observations compare against the workload the index
        is *now* optimized for rather than the original one.
        """
        if table is None:
            if self._table is None:
                raise ValueError("detector has not been fitted")
            table = self._table
        return self.fit(table, workload)

    def _centroid(self, queries: list[Query]) -> tuple[tuple[str, ...], np.ndarray]:
        """Mean selectivity embedding of a query type (over its filtered dims)."""
        assert self._sample is not None
        dims = tuple(sorted(queries[0].filtered_dimensions))
        embeddings = []
        for query in queries:
            vector = selectivity_vector(self._sample, query)
            embeddings.append([vector.get(dim, 1.0) for dim in dims])
        return dims, np.mean(np.array(embeddings), axis=0) if embeddings else np.zeros(len(dims))

    # -- detection ----------------------------------------------------------------

    def _match_type(self, query: Query) -> int | None:
        """The known query type this query belongs to, or ``None`` if novel."""
        assert self._sample is not None
        dims = tuple(sorted(query.filtered_dimensions))
        vector = selectivity_vector(self._sample, query)
        embedding = np.array([vector.get(dim, 1.0) for dim in dims])
        best: tuple[float, int] | None = None
        for type_id, (type_dims, centroid) in self._type_centroids.items():
            if type_dims != dims:
                continue
            distance = float(np.linalg.norm(embedding - centroid))
            if best is None or distance < best[0]:
                best = (distance, type_id)
        if best is None or best[0] > EPS:
            return None
        return best[1]

    def observe(self, queries: Workload | list[Query]) -> DriftReport:
        """Compare a window of observed queries against the fitted workload."""
        if self._table is None:
            raise ValueError("detector has not been fitted")
        observed = list(queries)
        if not observed:
            return DriftReport(False, 0.0, (), 0.0, ())

        matches = [self._match_type(query) for query in observed]
        unmatched = sum(1 for match in matches if match is None)
        new_type_fraction = unmatched / len(observed)

        observed_frequencies = {type_id: 0.0 for type_id in self._type_frequencies}
        for match in matches:
            if match is not None:
                observed_frequencies[match] += 1.0 / len(observed)
        disappeared = tuple(
            type_id
            for type_id, old_frequency in self._type_frequencies.items()
            if old_frequency > 0.05 and observed_frequencies.get(type_id, 0.0) == 0.0
        )
        # Total variation distance between old and observed type frequencies
        # (the unmatched mass counts as frequency shift too).
        frequency_shift = 0.5 * (
            sum(
                abs(self._type_frequencies[type_id] - observed_frequencies.get(type_id, 0.0))
                for type_id in self._type_frequencies
            )
            + new_type_fraction
        )

        reasons = []
        if new_type_fraction > NEW_TYPE_THRESHOLD:
            reasons.append(
                f"{new_type_fraction:.0%} of observed queries match no known query type"
            )
        if disappeared:
            reasons.append(f"query types {list(disappeared)} disappeared from the workload")
        if frequency_shift > FREQUENCY_THRESHOLD:
            reasons.append(
                f"query-type frequencies shifted by {frequency_shift:.0%} (total variation)"
            )
        return DriftReport(
            drifted=bool(reasons),
            new_type_fraction=new_type_fraction,
            disappeared_types=disappeared,
            frequency_shift=frequency_shift,
            reasons=tuple(reasons),
        )
