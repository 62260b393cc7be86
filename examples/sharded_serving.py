"""Scale-out serving: a batch fanned across independently optimized shards.

Run with::

    python examples/sharded_serving.py

The ROADMAP's north star asks for one process to serve heavy traffic by
partitioning the data instead of growing one monolithic index.  This example
range-partitions the taxi stand-in dataset into four updatable shards, shows
per-shard bounding boxes pruning most shards for a localized query, streams a
skewed batch through ``QueryEngine`` with results identical to a full scan,
routes fresh inserts to their owning shards, and snapshots the whole sharded
index (per-shard subdirectories, pending inserts included) to disk.
"""

from __future__ import annotations

import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro import (
    DeltaBufferedIndex,
    ShardedIndex,
    TsunamiIndex,
    execute_full_scan,
    load_index,
    save_index,
)
from repro.core.sharding import scaled_tsunami_config
from repro.datasets import load_dataset
from repro.query.engine import QueryEngine

NUM_SHARDS = 4


def main() -> None:
    table, workload = load_dataset("taxi", num_rows=60_000, queries_per_type=40)
    shard_config = scaled_tsunami_config(NUM_SHARDS)
    index = ShardedIndex(
        partial(
            DeltaBufferedIndex,
            partial(TsunamiIndex, shard_config),
            merge_threshold=50_000,
        ),
        num_shards=NUM_SHARDS,
        parallelism=NUM_SHARDS,
    )
    index.build(table, workload)
    info = index.describe()
    print(
        f"built {info['num_shards']} shards on {info['shard_dimension']!r} "
        f"(rows per shard: {info['rows_per_shard']})"
    )

    # A localized query only touches the shards whose bounding box it hits.
    probe = max(workload, key=index.shards_pruned)
    plan = index.explain(probe)
    print(
        f"probe plan: {plan['shards_pruned']}/{plan['num_shards']} shards pruned, "
        f"{plan['rows_to_scan']} rows to scan "
        f"({100 * plan['table_fraction_scanned']:.2f}% of the table)"
    )

    # A skewed batch through the engine, checked against the full-scan oracle.
    engine = QueryEngine(index=index)
    batch = [list(workload)[i % len(workload)] for i in range(512)]
    results = engine.run_batch(batch)
    for query, result in zip(batch[:5], results[:5]):
        expected, _ = execute_full_scan(index.table, query)
        assert result.value == expected
    print(f"served {len(batch)} queries; spot-checked answers match the full scan")

    # Inserts route to the owning shard and stay visible to queries.
    rng = np.random.default_rng(7)
    base = index.table
    fresh_rows = []
    for _ in range(1_000):
        row = {
            name: base.column(name).to_user(
                int(base.values(name)[int(rng.integers(0, base.num_rows))])
            )
            for name in base.column_names
        }
        fresh_rows.append(row)
    index.insert_many(fresh_rows)
    print(
        f"inserted {len(fresh_rows)} rows; pending per shard: "
        f"{[shard.num_pending for shard in index.shards]}"
    )
    before = index.execute(probe).value

    # The whole sharded index (pending inserts included) snapshots to disk.
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "sharded_snapshot"
        save_index(index, target)
        shard_dirs = sorted(p.name for p in target.iterdir() if p.is_dir())
        loaded = load_index(target)
        print(f"snapshot holds {shard_dirs}; reloaded {loaded.num_pending} pending rows")
        assert loaded.execute(probe).value == before
    print("reloaded answers match the live index")


if __name__ == "__main__":
    main()
