"""LRU query-result cache for the serving front-end.

Skewed workloads (§4) repeat a small set of query templates, so a front-end
serving bursty traffic sees the *same* :class:`~repro.query.query.Query`
value objects over and over.  :class:`ResultCache` memoizes whole
:class:`~repro.baselines.base.QueryResult` objects keyed by the query itself
(queries are hashable frozen dataclasses), so a repeated template is answered
without touching the engine at all.

The invalidation rule extends the one
:class:`~repro.core.query_types.PlanCache` uses.  A plan cache only goes
stale when the physical layout changes (merge rebuild, ``reoptimize``,
``fit``), because cached spans address the clustered row order.  A *result*
cache additionally goes stale the moment any row is inserted, because
pending delta-buffer rows are visible to queries immediately.  The serving
front-end therefore calls :meth:`ResultCache.invalidate`

* on every write admitted through it, and
* whenever the :class:`~repro.core.lifecycle.LifecycleManager` reports a
  ``merge`` or ``reoptimize`` event (maintenance the lifecycle loop triggers
  on its own, e.g. buffer pressure or drift).

A cleared cache simply refills from the next executions; correctness never
depends on a hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.baselines.base import QueryResult
from repro.common import faults
from repro.common.records import Record
from repro.query.query import Query


@dataclass
class ResultCacheStats(Record):
    """Hit/miss/invalidation accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """A thread-safe LRU cache of complete query results.

    Every operation holds one internal lock, so concurrent client threads and
    the dispatcher thread can share a cache safely.  Results are stored and
    returned with *copied* :class:`~repro.storage.scan.ScanStats` (the same
    contract as :func:`~repro.baselines.base.expand_deduped_results`): a
    cached query still reports the full logical work of its template, and no
    caller can mutate the cached entry's counters.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = ResultCacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[Query, QueryResult] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, query: Query) -> QueryResult | None:
        """The cached result for ``query`` (an independent copy), or ``None``."""
        faults.trigger("cache.get")
        with self._lock:
            entry = self._entries.get(query)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(query)
            self.stats.hits += 1
            return QueryResult(value=entry.value, stats=entry.stats.copy())

    def put(self, query: Query, result: QueryResult) -> None:
        """Insert ``result`` under ``query``, evicting the LRU entry when full."""
        faults.trigger("cache.put")
        frozen = QueryResult(value=result.value, stats=result.stats.copy())
        with self._lock:
            self._entries[query] = frozen
            self._entries.move_to_end(query)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (data or layout changed); hit/miss stats survive."""
        with self._lock:
            self._entries.clear()
            self.stats.invalidations += 1
