"""Stage tracing for the benchmark's traced pass.

:class:`Tracer` wraps the public entry point of each layer -- from this
directory, never from inside ``src/`` -- and records one :class:`Span` per
call: its stage, its duration, the serving batch it ran under and the
innermost enclosing stage on the same thread.  A batch's time then splits
into the stage time directly under it plus an unattributed remainder.
Wrappers exist only while the tracer is installed; :meth:`Tracer.uninstall`
puts every original function back.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.baselines.base import ClusteredIndex
from repro.core.augmented_grid import AugmentedGrid
from repro.core.delta import DeltaBuffer, DeltaBufferedIndex
from repro.core.grid_tree import GridTree
from repro.core.incremental import IncrementalReoptimizer
from repro.core.lifecycle import LifecycleManager
from repro.core.sharding import ShardedIndex
from repro.query.engine import QueryEngine
from repro.storage.scan import ScanExecutor

BATCH = "serve.run_batch"


def _batch_queries(args, result):
    return args[1]


def _buffered_rows(args, result):
    return len(args[0])


def _fan_out(args, result):
    return args[0], args[1]


def _merge_report(args, result):
    return result


#: (class, method, span name, is a stage of the enclosing batch, what the
#: span keeps from the call).  A shard's whole ``execute_batch`` under a
#: fan-out is not a stage: the route, plan and scan stages inside it are.
TRACED = (
    (QueryEngine, "run_batch", BATCH, False, _batch_queries),
    (LifecycleManager, "run_batch", BATCH, False, _batch_queries),
    (GridTree, "regions_for_queries", "grid_tree.route", True, None),
    (AugmentedGrid, "ranges_for_query", "augmented_grid.plan", True, None),
    (ScanExecutor, "execute_batch", "scan.execute", True, None),
    (DeltaBuffer, "scan", "delta.buffer_scan", True, _buffered_rows),
    (ShardedIndex, "execute_batch", "sharding.fanout", True, _fan_out),
    (ClusteredIndex, "execute_batch", "sharding.shard_execute", False, None),
    (DeltaBufferedIndex, "insert_many", "delta.insert", True, None),
    (DeltaBufferedIndex, "merge", "merge", True, _merge_report),
    (IncrementalReoptimizer, "reoptimize", "lifecycle.reoptimize", True, None),
)


@dataclass(eq=False)
class Span:
    """One traced call."""

    name: str
    stage: bool
    batch: Span | None  # the serving batch enclosing the call on its thread
    owner: Span | None  # the innermost stage enclosing the call on its thread
    seconds: float = 0.0
    note: object = None


class Tracer:
    """Installs a timing wrapper on every function in :data:`TRACED`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []

    def install(self) -> Tracer:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, method, name, stage, keep in TRACED:
            original = owner.__dict__[method]
            self._originals.append((owner, method, original))
            setattr(owner, method, self._wrap(original, name, stage, keep))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, method, original = self._originals.pop()
            setattr(owner, method, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, original, name: str, stage: bool, keep):
        spans = self.spans
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            batch = getattr(local, "batch", None)
            owner = getattr(local, "owner", None)
            span = Span(name, stage, batch, owner)
            spans.append(span)
            if name == BATCH:
                local.batch = span
            if stage:
                local.owner = span
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - start
                local.batch = batch
                local.owner = owner
            if keep is not None:
                span.note = keep(args, result)
            return result

        return traced


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize(spans: list[Span], answered: list[tuple[object, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``answered`` pairs every answered query object with its client latency.
    Read-path stage times are per backend batch, so on one index they add
    up to ``serve.dispatch_ms``; write-path and maintenance times are per
    call.  A query answered from the result cache rode in no batch and is
    left out of the queue-wait and remainder means.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    attributed: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.stage and span.owner is None and span.batch is not None:
            attributed[id(span.batch)] += span.seconds
    batches = by_name[BATCH]
    batch_of = {id(query): batch for batch in batches for query in batch.note or ()}
    waits, remainders, latency = [], [], 0.0
    for query, seconds in answered:
        batch = batch_of.get(id(query))
        if batch is None:
            continue
        waits.append(seconds - batch.seconds)
        remainders.append(batch.seconds - attributed[id(batch)])
        latency += seconds

    def total(name: str) -> float:
        return sum(span.seconds for span in by_name[name])

    def per_batch_ms(seconds: float) -> float:
        return 1e3 * seconds / max(len(batches), 1)

    def per_call_ms(name: str) -> float:
        return 1e3 * _mean(span.seconds for span in by_name[name])

    fanouts = [span for span in by_name["sharding.fanout"] if span.note is not None]
    busy = total("sharding.shard_execute") if fanouts else 0.0
    merges = [span for span in by_name["merge"] if span.note is not None]
    return {
        "serve.queue_wait_ms": 1e3 * _mean(waits),
        "serve.dispatch_ms": per_call_ms(BATCH),
        "grid_tree.route_ms": per_batch_ms(total("grid_tree.route")),
        "augmented_grid.plan_ms": per_batch_ms(total("augmented_grid.plan")),
        "scan.execute_ms": per_batch_ms(total("scan.execute")),
        "delta.buffer_scan_ms": per_batch_ms(total("delta.buffer_scan")),
        "delta.pending_rows_mean": _mean(span.note for span in by_name["delta.buffer_scan"]),
        "delta.insert_ms": per_call_ms("delta.insert"),
        "sharding.fanout_ms": per_batch_ms(total("sharding.fanout")),
        "sharding.shard_busy_ms": per_batch_ms(busy),
        "sharding.parallel_ratio": busy / total("sharding.fanout") if fanouts else 0.0,
        "sharding.shards_pruned_per_query": _mean(
            index.shards_pruned(query)
            for index, queries in (span.note for span in fanouts)
            for query in dict.fromkeys(queries)
        ),
        "merge.count": float(len(merges)),
        "merge.ms": 1e3 * _mean(span.seconds for span in merges),
        "merge.regions_touched_frac": _mean(
            span.note.regions_touched / span.note.regions_total for span in merges if span.note.regions_total
        ),
        "lifecycle.reoptimize_ms": per_call_ms("lifecycle.reoptimize"),
        "trace.unattributed_ms": 1e3 * _mean(remainders),
        "trace.unattributed_share": sum(remainders) / latency if latency else 0.0,
    }
