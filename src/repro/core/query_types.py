"""Query-type clustering (§4.3.1).

Queries are grouped into *types* with similar selectivity characteristics so
that query skew can be measured per type (skews of different types would
otherwise cancel out).  The procedure is exactly the paper's:

1. Queries filtering different sets of dimensions automatically belong to
   different types.
2. Within a group that filters the same ``d'`` dimensions, each query is
   embedded as the ``d'``-vector of its per-dimension filter selectivities.
3. DBSCAN with ``eps = 0.2`` clusters the embeddings; the number of clusters
   is determined automatically.

Every query receives a type label; DBSCAN noise points are folded into the
nearest cluster (or become singleton types when a group is all noise).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.records import Record
from repro.common.rng import make_rng
from repro.query.query import Query
from repro.query.selectivity import selectivity_vector
from repro.query.workload import Workload
from repro.stats.clustering import assign_noise_to_clusters, dbscan
from repro.storage.table import Table

#: DBSCAN's neighbourhood radius over selectivity vectors (the paper's 0.2).
EPS = 0.2
#: DBSCAN's core-point size, capped at half of a small group.
MIN_SAMPLES = 4
#: Rows of the table the selectivity embeddings are computed on.
SAMPLE_ROWS = 20_000


def cluster_query_types(table: Table, workload: Workload, seed: int = 17) -> Workload:
    """Return a copy of ``workload`` with every query labelled by query type.

    Selectivity embeddings are computed against a row sample of at most
    :data:`SAMPLE_ROWS` rows of ``table`` for efficiency; the clustering only
    needs selectivities to be approximately right, not exact.
    """
    if len(workload) == 0:
        return Workload([], name=workload.name)

    sample = table
    if table.num_rows > SAMPLE_ROWS:
        sample = table.sample_rows(SAMPLE_ROWS, make_rng(seed))

    # Step 1: group queries by the set of dimensions they filter.
    groups: dict[tuple[str, ...], list[tuple[int, Query]]] = {}
    for position, query in enumerate(workload):
        key = tuple(sorted(query.filtered_dimensions))
        groups.setdefault(key, []).append((position, query))

    labelled: list[Query | None] = [None] * len(workload)
    next_type_id = 0
    for key in sorted(groups):
        members = groups[key]
        if len(key) == 0:
            # Queries with no filter predicates form a single trivial type.
            for position, query in members:
                labelled[position] = query.with_type(next_type_id)
            next_type_id += 1
            continue

        # Step 2: embed each query as its per-dimension selectivity vector.
        embeddings = np.zeros((len(members), len(key)))
        for row, (_, query) in enumerate(members):
            vector = selectivity_vector(sample, query)
            embeddings[row] = [vector[dim] for dim in key]

        # Step 3: DBSCAN with eps=0.2 determines the clusters automatically.
        effective_min_samples = min(MIN_SAMPLES, max(1, len(members) // 2))
        labels = dbscan(embeddings, eps=EPS, min_samples=effective_min_samples)
        labels = assign_noise_to_clusters(embeddings, labels)

        remapped: dict[int, int] = {}
        for (position, query), label in zip(members, labels):
            if int(label) not in remapped:
                remapped[int(label)] = next_type_id
                next_type_id += 1
            labelled[position] = query.with_type(remapped[int(label)])

    return Workload([q for q in labelled if q is not None], name=workload.name)


@dataclass
class PlanCacheStats(Record):
    """Hit/miss accounting for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "PlanCacheStats") -> "PlanCacheStats":
        """Accumulate another stats object into this one (in place)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self


class PlanCache:
    """An LRU cache of query plans keyed by query type + quantized bounds.

    Skewed workloads (§4) repeat a small set of query templates; two queries
    whose predicate bounds quantize to the same per-dimension *partition
    windows* visit exactly the same grid cells with the same exactness flags
    (the CDF models are monotone, so every partition strictly inside a window
    lies inside *any* filter range producing that window).  Caching the
    planned spans under ``(query_type, filtered dimensions, windows)`` is
    therefore lossless: a hit replays the identical plan, and scan-time
    filtering still uses the live query's exact bounds.  The grid builds
    the key as a flat tuple: the query type, the sorted filtered
    dimensions (both taken once per query, for all its regions), then the
    windows of only the grid dimensions the query bounds, as plain ints in
    grid order (one ``first, last`` pair per independent dimension, one per
    base partition for a conditional one).  Each window is two bisects in
    the dimension's compiled partition function
    (:meth:`~repro.stats.cdf.EmpiricalCDF.partitioning`).  Every other
    window is full, and the filtered dimensions say which dimensions are
    bounded, so the short key still fixes the plan.

    A plan is whatever the grid stores: its relative spans plus the row
    ranges it last handed out at the region's offset, so a warm hit builds
    no row range until a local merge moves the region.

    The cache must be dropped whenever the physical layout changes (rebuild or
    :meth:`~repro.core.tsunami.TsunamiIndex.reoptimize`): cached spans are
    offsets into the clustered row order.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        """Return the cached plan for ``key``, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: tuple, plan) -> None:
        """Insert ``plan`` under ``key``, evicting the LRU entry when full."""
        self._entries[key] = plan
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def map_plans(self, convert) -> None:
        """Replace every cached plan by ``convert(plan)``, keeping keys, order and statistics."""
        for key, plan in list(self._entries.items()):
            self._entries[key] = convert(plan)

    def clear(self) -> None:
        """Drop every entry and reset the statistics (layout invalidation)."""
        self._entries.clear()
        self.stats = PlanCacheStats()


def queries_by_type(workload: Workload) -> dict[int, list[Query]]:
    """Group labelled queries by type id (unlabelled queries get type ``-1``)."""
    groups: dict[int, list[Query]] = {}
    for query in workload:
        type_id = query.query_type if query.query_type is not None else -1
        groups.setdefault(type_id, []).append(query)
    return groups
