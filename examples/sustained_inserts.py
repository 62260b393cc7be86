"""Sustained inserts: a million-row stream absorbed by local merges.

Run with::

    python examples/sustained_inserts.py

PR 10 replaced the delta buffer's merge-and-rebuild with per-region
reorganization: a merge routes buffered rows to their owning Grid Tree
regions and re-sorts (or locally re-optimizes) only those regions, so
merge cost tracks the size of the write hotspot instead of the table.
This example streams one million localized inserts through a
``LifecycleManager`` loop and prints the updates/sec curve as the table
grows from 100k to over a million rows — the curve stays roughly flat,
where the legacy ``merge_strategy="rebuild"`` falls off as 1/n.  A merge
runs once 50,000 rows are pending (the index's ``merge_threshold``) or
once they reach 10% of the table (the loop's pressure), whichever comes
first.
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    DeltaBufferedIndex,
    LifecycleManager,
    Query,
    TsunamiConfig,
    TsunamiIndex,
    Workload,
)
from repro.storage.table import Table

BASE_ROWS = 100_000
TOTAL_INSERTS = 1_000_000
BATCH_ROWS = 10_000
DOMAIN = 1_000_000
HOTSPOT = (880_000, 940_000)


def make_table(num_rows: int, seed: int = 7) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, DOMAIN, num_rows)
    return Table.from_arrays(
        "stream",
        {
            "x": x,
            "y": x * 3 + rng.integers(-5_000, 5_001, num_rows),
            "z": rng.integers(0, 50_000, num_rows),
        },
    )


def make_workload(seed: int = 9, count: int = 32) -> Workload:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        low = int(rng.integers(0, DOMAIN - 60_000))
        queries.append(
            Query.from_ranges(
                {"x": (low, low + 50_000), "z": (0, int(rng.integers(10_000, 50_000)))}
            )
        )
    return Workload(queries, name="sustained")


def hotspot_batch(rng: np.random.Generator, count: int) -> list[dict]:
    x = rng.integers(*HOTSPOT, count)
    y = x * 3 + rng.integers(-5_000, 5_001, count)
    z = rng.integers(0, 50_000, count)
    return [
        {"x": int(xi), "y": int(yi), "z": int(zi)} for xi, yi, zi in zip(x, y, z)
    ]


def main() -> None:
    index = DeltaBufferedIndex(
        lambda: TsunamiIndex(TsunamiConfig(optimizer_iterations=1)),
        merge_threshold=50_000,
        merge_strategy="local",
    )
    index.build(make_table(BASE_ROWS), make_workload())
    manager = LifecycleManager(index)

    hotspot_probe = Query.from_ranges({"x": HOTSPOT, "z": (0, 50_000)})
    rng = np.random.default_rng(13)
    print(f"built on {BASE_ROWS:,} rows; streaming {TOTAL_INSERTS:,} inserts")
    print(f"{'table rows':>12} {'updates/sec':>12} {'merges':>7} {'touched/total regions':>22}")

    inserted = 0
    window_start = time.perf_counter()
    window_rows = 0
    while inserted < TOTAL_INSERTS:
        manager.insert_many(hotspot_batch(rng, BATCH_ROWS))
        inserted += BATCH_ROWS
        window_rows += BATCH_ROWS
        if inserted % 100_000 == 0:
            elapsed = time.perf_counter() - window_start
            history = index.merge_history
            touched = sum(report.regions_touched or 0 for report in history)
            total = sum(report.regions_total or 0 for report in history)
            print(
                f"{index.num_rows:>12,} {window_rows / elapsed:>12,.0f} "
                f"{len(history):>7} {f'{touched}/{total}':>22}"
            )
            window_start = time.perf_counter()
            window_rows = 0

    result = index.execute(hotspot_probe)
    print(f"\nhotspot probe matches {result.stats.rows_matched:,} rows")
    report = manager.report()
    print(
        f"lifecycle: {report.rows_inserted:,} rows inserted, "
        f"{report.merges} merges ({report.local_merges} local), "
        f"{report.merge_regions_touched}/{report.merge_regions_total} "
        "regions touched across all merges"
    )


if __name__ == "__main__":
    main()
