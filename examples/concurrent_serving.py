"""Concurrent serving: many client threads, one micro-batched pipeline.

Run with::

    python examples/concurrent_serving.py

Everything below the serving contract is single-threaded; this example shows
the piece that turns concurrent clients into the batched calls the pipeline
is built for.  A :class:`~repro.serve.frontend.ServingFrontend` wraps a
:class:`~repro.core.lifecycle.LifecycleManager` over an updatable index, 16
client threads push a zipf-skewed query stream through it, and the front-end
coalesces their arrivals into micro-batches (collection goes on only while
arrivals keep coming, up to the batch-size cap) while an LRU result cache
answers repeated templates without touching the engine.  Writes and
lifecycle maintenance (merge / re-optimize) invalidate the cache, so every
answer matches the full-scan oracle even while the index is being modified.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import (
    DeltaBufferedIndex,
    LifecycleManager,
    ServingConfig,
    ServingFrontend,
    TsunamiConfig,
    TsunamiIndex,
    execute_full_scan,
)
from repro.datasets import load_dataset

NUM_CLIENTS = 16


def main() -> None:
    table, workload = load_dataset("taxi", num_rows=40_000, queries_per_type=30)
    # The 500-row insert burst below reaches the merge threshold, so the
    # delta index folds every inserted row into the table inside that write,
    # while the front-end holds its batches back; the loop books the merge
    # as a "threshold" event, which drops the result cache once more (the
    # loop's 10% pressure, 4,000 rows here, is not reached).
    index = DeltaBufferedIndex(
        lambda: TsunamiIndex(TsunamiConfig(optimizer_iterations=2)),
        merge_threshold=500,
    )
    index.build(table, workload)
    backend = LifecycleManager(index)

    # A zipf-skewed stream over the workload's templates: a few hot queries
    # dominate, which is exactly what the result cache exploits.
    rng = np.random.default_rng(11)
    templates = list(workload)
    draws = rng.zipf(1.3, size=2_000) - 1
    stream = [templates[int(d) % len(templates)] for d in draws]

    config = ServingConfig(max_batch_size=128)
    with ServingFrontend(backend, config) as frontend:
        # 16 closed-loop clients hammer the front-end concurrently.
        with ThreadPoolExecutor(NUM_CLIENTS) as clients:
            results = list(clients.map(frontend.query, stream))

        # Concurrent cached serving is bit-identical to the full-scan oracle.
        for query in set(stream[:50]):
            expected, _ = execute_full_scan(backend.index.table, query)
            assert frontend.query(query).value == expected
        print(f"served {len(results)} queries from {NUM_CLIENTS} client threads")

        stats = frontend.describe()
        print(
            f"micro-batching: {stats['batching']['batches']} batches, "
            f"mean size {stats['batching']['mean_batch_size']:.2f}, "
            f"largest {stats['batching']['largest_batch']}"
        )
        print(
            f"result cache: hit rate {stats['cache']['hit_rate']:.0%} "
            f"({stats['cache']['hits']} hits / {stats['cache']['misses']} misses)"
        )

        # Writes go through the same front door; every cached result is
        # dropped at insert time (pending delta rows are visible immediately),
        # and every merge or re-optimization the loop books invalidates the
        # same way, the threshold merge inside this write included.
        probe = stream[0]
        before = frontend.query(probe).value
        base = backend.index.table
        fresh_rows = []
        for _ in range(500):
            row = {
                name: base.column(name).to_user(
                    int(base.values(name)[int(rng.integers(0, base.num_rows))])
                )
                for name in base.column_names
            }
            fresh_rows.append(row)
        frontend.insert_many(fresh_rows)
        after = frontend.query(probe).value
        oracle, _ = execute_full_scan(backend.index.table, probe)
        assert after == oracle
        print(
            f"inserted {len(fresh_rows)} rows; probe answer {before} -> {after} "
            f"(cache invalidations: {frontend.stats.invalidations})"
        )
    print("front-end closed; admissions drained and backend released")


if __name__ == "__main__":
    main()
