"""The benchmark's workloads: set-up, closed-loop driving, oracle and metrics.

Each workload serves a fixed, seed-determined stream through
:class:`~repro.serve.ServingFrontend` from client threads that wait for each
answer before sending their next request -- a closed loop, like dashboards
and analysts.  An end-to-end run serves the stream :data:`PASSES` times, each
time on a freshly set-up stack, so every stream position is answered
several times under identical server state.  A pass's stream is the
workload's nominal rate times ``--seconds / PASSES`` long, so a run does the
same work every time and its counts repeat exactly; on a 2-core host the
passes together last about ``--seconds``.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from inputs import Inputs, drift_inputs, hot_inputs, rows_of, skewed_inputs
from tracing import Tracer, summarize

from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleManager
from repro.core.sharding import ShardedIndex, scaled_tsunami_config
from repro.core.tsunami import TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.workload import Workload
from repro.serve import ServingFrontend
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

#: Set-ups, and passes over the stream, per end-to-end run: each pass runs
#: on its own freshly set-up stack, and ``setup_s`` is the median set-up.
PASSES = 3
NUM_SHARDS = 4
QUERY_TIMEOUT_SECONDS = 60.0


@dataclass
class Stack:
    """One served index and the front-end its clients call."""

    frontend: ServingFrontend
    index: TsunamiIndex | ShardedIndex | DeltaBufferedIndex
    lifecycle: LifecycleManager | None = None

    def tsunami_indexes(self) -> list[TsunamiIndex]:
        if isinstance(self.index, ShardedIndex):
            return self.index.shards
        if isinstance(self.index, DeltaBufferedIndex):
            return [self.index.base_index]
        return [self.index]

    def build_seconds(self) -> tuple[float, float]:
        """(optimize, sort) seconds summed over every built Tsunami index."""
        reports = [index.build_report for index in self.tsunami_indexes()]
        return sum(r.optimize_seconds for r in reports), sum(r.sort_seconds for r in reports)

    def table_bytes_per_value(self) -> float:
        """Stored bytes per value over every table the index clusters."""
        tables = [index.table for index in self.tsunami_indexes()]
        stored = sum(table.size_bytes() for table in tables)
        return stored / sum(table.num_rows * table.num_dimensions for table in tables)

    def counters(self) -> dict[str, float]:
        """Cumulative layer counters, read before and after a timed pass."""
        cache = self.frontend.cache.stats
        batching = self.frontend.batcher.stats
        plans = [index.plan_cache_stats() for index in self.tsunami_indexes()]
        counters = {
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.evictions": cache.evictions,
            "batch.items": batching.items_admitted,
            "batch.count": batching.batches,
            "plan.hits": sum(stats.hits for stats in plans),
            "plan.misses": sum(stats.misses for stats in plans),
        }
        if self.lifecycle is not None:
            report = self.lifecycle.report()
            counters["lifecycle.drifts"] = report.drifts_detected
            counters["lifecycle.reoptimizations"] = report.reoptimizations
            counters["lifecycle.maintenance_s"] = report.maintenance_seconds
        return counters

    def close(self) -> None:
        self.frontend.close()


def serve_tsunami(table: Table, workload: Workload) -> Stack:
    index = TsunamiIndex().build(table, workload)
    return Stack(ServingFrontend(QueryEngine(index)), index)


def serve_sharded(table: Table, workload: Workload) -> Stack:
    index = ShardedIndex(
        lambda: TsunamiIndex(scaled_tsunami_config(NUM_SHARDS)), num_shards=NUM_SHARDS, parallelism=2
    ).build(table, workload)
    return Stack(ServingFrontend(QueryEngine(index)), index)


def serve_lifecycle(table: Table, workload: Workload) -> Stack:
    index = DeltaBufferedIndex(TsunamiIndex, merge_strategy="local").build(table, workload)
    lifecycle = LifecycleManager(index)
    return Stack(ServingFrontend(lifecycle), index, lifecycle)


@dataclass(frozen=True)
class Spec:
    """How one workload's inputs are made, what serves them, and how many clients call."""

    make_inputs: Callable[[int, float], Inputs]  # (seed, seconds of one pass) -> inputs
    setup: Callable[[Table, Workload], Stack]
    clients: int


def _skewed(seed: int, seconds: float) -> Inputs:
    return skewed_inputs(seed, rows=20_000, build_per_type=6, stream_length=round(1_400 * seconds), warmup=64)


def _hot(seed: int, seconds: float) -> Inputs:
    # 16,384 distinct queries, four times the front-end's default 4,096-entry
    # result cache: the popular head hits, the long tail misses and evicts.
    return hot_inputs(
        seed,
        rows=20_000,
        build_per_type=6,
        stream_length=round(3_000 * seconds),
        warmup=64,
        pool_size=16_384,
        zipf_exponent=0.8,
    )


def _drift(seed: int, seconds: float) -> Inputs:
    return drift_inputs(
        seed,
        rows=20_000,
        build_per_type=6,
        stream_length=round(1_000 * seconds),
        shifted_weights={1: 1, 2: 1, 5: 1},
        insert_every=50,
        insert_rows=50,
    )


WORKLOADS = {
    "taxi_skewed": Spec(_skewed, serve_tsunami, clients=2),
    "taxi_hot_sharded": Spec(_hot, serve_sharded, clients=2),
    "taxi_drift_ingest": Spec(_drift, serve_lifecycle, clients=1),
}


@dataclass
class Run:
    """What the clients saw during one pass over a stream."""

    latencies: list  # seconds per stream position; None when not answered
    results: list  # QueryResult per stream position; None when not answered
    errors: list[str] = field(default_factory=list)
    insert_latencies: list[float] = field(default_factory=list)
    issued: int = 0  # operations sent: queries plus insert batches
    elapsed: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def answered(self) -> list[int]:
        return [position for position, result in enumerate(self.results) if result is not None]


def drive(frontend: ServingFrontend, stream: list, clients: int, inserts=None, time_cap=float("inf")) -> Run:
    """Serve ``stream`` in a closed loop from ``clients`` threads.

    Each client takes the next stream position, first sends the insert batch
    scheduled there (only single-client streams schedule inserts, so every
    query sees a fixed set of rows), then the query, and waits for every
    answer.  No position starts after ``time_cap`` seconds.
    """
    inserts = inserts or {}
    run = Run([None] * len(stream), [None] * len(stream))
    positions = iter(range(len(stream)))
    lock = threading.Lock()
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                position = next(positions, None)
                if position is None or time.perf_counter() - start > time_cap:
                    return
                run.issued += 1 + (position in inserts)
            rows = inserts.get(position)
            if rows is not None:
                sent = time.perf_counter()
                try:
                    frontend.insert_many(rows)
                except Exception as exc:  # counted as a failed operation
                    run.errors.append(f"insert before query {position}: {exc!r}")
                else:
                    run.insert_latencies.append(time.perf_counter() - sent)
            sent = time.perf_counter()
            try:
                result = frontend.query(stream[position], timeout=QUERY_TIMEOUT_SECONDS)
            except Exception as exc:  # exceptions, timeouts and rejections alike
                run.errors.append(f"query {position}: {exc!r}")
                continue
            run.latencies[position] = time.perf_counter() - sent
            run.results[position] = result

    threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.elapsed = time.perf_counter() - start
    return run


def serve(stack: Stack, inputs: Inputs, inserts: dict, clients: int, time_cap: float, tracer=None) -> Run:
    """Warm up, then drive the timed stream, reading the layer counters around it."""
    gc.collect()  # every pass starts from a heap without the previous pass's garbage
    if inputs.warmup:
        drive(stack.frontend, inputs.warmup, clients)
    before = stack.counters()
    if tracer is not None:
        tracer.install()
    try:
        run = drive(stack.frontend, inputs.stream, clients, inserts, time_cap)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = stack.counters()
    # A re-optimized region starts a fresh plan cache, so a cumulative counter
    # can fall during the run; it then counts from zero.
    run.counters = {name: after[name] - before[name] if after[name] >= before[name] else after[name] for name in after}
    return run


def oracle_mismatches(inputs: Inputs, runs: list[Run]) -> list[int]:
    """Per run, the answers that differ from a full scan over the rows visible to their query.

    An ingest stream has one client, which sends each insert batch before
    the query at its position, so query ``p`` sees the corpus table plus
    every batch scheduled at or before ``p``.  Each position is scanned once
    and checked in every run that answered it.
    """
    scheduled = sorted(inputs.inserts)
    answered = sorted(set().union(*(run.answered for run in runs)))
    epoch, table, executor = None, None, None
    expected: dict = {}
    mismatches = [0] * len(runs)
    for position in answered:
        visible = bisect.bisect_right(scheduled, position)
        if visible != epoch:
            batches = [inputs.inserts[p] for p in scheduled[:visible]]
            table = Table.from_arrays(
                "oracle",
                {
                    name: np.concatenate([values, *(batch[name] for batch in batches)])
                    for name, values in inputs.table_columns.items()
                },
            )
            epoch, executor, expected = visible, ScanExecutor(table), {}
        query = inputs.stream[position]
        if query not in expected:
            expected[query] = execute_full_scan(table, query, executor)[0]
        for k, run in enumerate(runs):
            result = run.results[position]
            if result is not None and result.value != expected[query]:
                mismatches[k] += 1
    return mismatches


def _percentile_ms(seconds, q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if len(seconds) else 0.0


def _best_latencies(runs: list[Run]) -> np.ndarray:
    """Each stream position's fastest client latency over the passes that answered it.

    The passes serve the same requests against identical server state, so a
    request's cost repeats from pass to pass; load from outside the
    benchmark only ever adds time, and rarely to the same request twice.
    """
    seconds = np.array([[np.nan if s is None else s for s in run.latencies] for run in runs])
    best = np.fmin.reduce(seconds, axis=0)
    return best[~np.isnan(best)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    runs: list[Run], setup_seconds: list[float], index_bytes: int, bytes_per_value: float
) -> dict[str, float]:
    best = _best_latencies(runs)
    return {
        "setup_s": statistics.median(setup_seconds),
        "qps": sum(len(run.answered) for run in runs) / sum(run.elapsed for run in runs),
        "query_p50_ms": _percentile_ms(best, 50),
        "query_p90_ms": _percentile_ms(best, 90),
        "index_bytes": float(index_bytes),
        "table_bytes_per_value": bytes_per_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    stack: Stack, inputs: Inputs, run: Run, plain: Run, tracer: Tracer, build: tuple[float, float]
) -> dict[str, float]:
    """Layer metrics of the traced pass ``run``; client latencies from the untraced ``plain``."""
    counters = run.counters
    stats = [run.results[position].stats for position in run.answered]
    points = sum(s.points_scanned for s in stats)
    return {
        **summarize(tracer.spans, [(inputs.stream[p], run.latencies[p]) for p in run.answered]),
        "serve.batch_size_mean": _ratio(counters["batch.items"], counters["batch.count"]),
        "serve.query_p99_ms": _percentile_ms([plain.latencies[p] for p in plain.answered], 99),
        "serve.insert_p50_ms": _percentile_ms(plain.insert_latencies, 50),
        "serve.insert_p99_ms": _percentile_ms(plain.insert_latencies, 99),
        "cache.hit_rate": _ratio(counters["cache.hits"], counters["cache.hits"] + counters["cache.misses"]),
        "cache.evictions": float(counters["cache.evictions"]),
        "plan_cache.hit_rate": _ratio(counters["plan.hits"], counters["plan.hits"] + counters["plan.misses"]),
        "scan.points_scanned_per_query": _ratio(points, len(stats)),
        "scan.cell_ranges_per_query": _ratio(sum(s.cell_ranges for s in stats), len(stats)),
        "scan.bytes_scanned_per_query": _ratio(sum(s.bytes_scanned for s in stats), len(stats)),
        "scan.match_ratio": _ratio(sum(s.rows_matched for s in stats), points),
        "build.optimize_s": build[0],
        "build.sort_s": build[1],
        "lifecycle.drifts": float(counters.get("lifecycle.drifts", 0)),
        "lifecycle.reoptimizations": float(counters.get("lifecycle.reoptimizations", 0)),
        "lifecycle.maintenance_share": counters.get("lifecycle.maintenance_s", 0.0) / run.elapsed,
        "trace.overhead_frac": run.elapsed / plain.elapsed - 1.0,
        "index_bytes": float(stack.index.index_size_bytes()),
    }


@dataclass
class Report:
    """Every metric one run measured, plus its operation accounting."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str]


def _set_up(spec: Spec, inputs: Inputs, setup_seconds: list[float]) -> Stack:
    table = inputs.fresh_table()
    gc.collect()  # the previous pass's stack is garbage now; keep its collection out of the timing
    started = time.perf_counter()
    stack = spec.setup(table, inputs.build_workload)
    setup_seconds.append(time.perf_counter() - started)
    return stack


def measure(name: str, seed: int, seconds: int, trace: bool) -> Report:
    """Run workload ``name`` once: end-to-end metrics, or with ``trace`` the per-layer ones."""
    spec = WORKLOADS[name]
    started = time.perf_counter()
    inputs = spec.make_inputs(seed, seconds / PASSES)
    inserts = {position: rows_of(batch) for position, batch in inputs.inserts.items()}
    notes = [
        f"inputs: {len(inputs.stream)} queries and {len(inserts)} insert batches per pass, "
        f"generated in {time.perf_counter() - started:.2f} s (charged to no metric)"
    ]
    time_cap = (6.0 * seconds + 30.0) / PASSES
    setup_seconds: list[float] = []
    if trace:
        # One untraced and one traced pass, each on a fresh stack.
        stack = _set_up(spec, inputs, setup_seconds)
        plain = serve(stack, inputs, inserts, spec.clients, time_cap)
        stack.close()
        stack = _set_up(spec, inputs, setup_seconds)
        tracer = Tracer()
        run = serve(stack, inputs, inserts, spec.clients, time_cap, tracer)
        metrics = per_layer(stack, inputs, run, plain, tracer, stack.build_seconds())
        stack.close()
        runs = {"untraced": plain, "traced": run}
    else:
        runs = {}
        for number in range(1, PASSES + 1):
            stack = _set_up(spec, inputs, setup_seconds)
            if number == 1:
                # Sizes as set up (paper Fig. 8): at the end of an ingest pass
                # they would depend on when drift-triggered merges fell.
                index_bytes, bytes_per_value = stack.index.index_size_bytes(), stack.table_bytes_per_value()
            runs[f"pass {number}"] = serve(stack, inputs, inserts, spec.clients, time_cap)
            stack.close()
        metrics = end_to_end(list(runs.values()), setup_seconds, index_bytes, bytes_per_value)
    notes.append("setup seconds: " + ", ".join(f"{s:.3f}" for s in setup_seconds))
    attempted = failed = 0
    for (label, run), mismatches in zip(runs.items(), oracle_mismatches(inputs, list(runs.values()))):
        attempted += run.issued
        failed += len(run.errors) + mismatches
        notes.append(
            f"{label}: {len(run.answered)} of {len(inputs.stream)} queries answered, "
            f"{len(run.insert_latencies)} insert batches, {run.elapsed:.2f} s, "
            f"{len(run.errors)} errors, {mismatches} oracle mismatches"
        )
        notes.extend(f"  {error}" for error in run.errors[:5])
    notes.append(f"error_rate {_ratio(failed, attempted):.6f} fraction ({failed} of {attempted} operations)")
    return Report(metrics, attempted, failed, notes)
