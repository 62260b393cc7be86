"""Tests for the one serialized shape of every stats and report record
(repro.common.records): each record's ``as_dict()`` holds its fields and its
derived properties, taken from a real served stack, and is valid JSON."""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.common.records import Record
from repro.core import lifecycle, tsunami
from repro.core.delta import DeltaBufferedIndex
from repro.core.incremental import IncrementalReoptimizer
from repro.core.lifecycle import LifecycleManager
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.query import Query
from repro.query.workload import Workload
from repro.serve import ServingConfig, ServingFrontend
from repro.storage.table import Table

#: The derived properties each record's ``as_dict()`` carries beside its fields.
PROPERTIES = {
    "ScanStats": {"scan_work"},
    "PlanCacheStats": {"hit_rate"},
    "FanOutStats": set(),
    "MergeReport": set(),
    "LifecycleReport": {
        "drifts_detected",
        "merges",
        "local_merges",
        "rows_merged",
        "reoptimizations",
        "regions_reoptimized",
        "maintenance_failures",
        "maintenance_seconds",
    },
    "IncrementalReport": set(),
    "DriftReport": set(),
    "BuildReport": {"total_seconds"},
    "ResultCacheStats": {"hit_rate"},
    "BatcherStats": {"mean_batch_size"},
    "ServingStats": set(),
}


def tsunami_factory():
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=1))


def make_table(num_rows: int = 4_000, seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, num_rows)
    return Table.from_arrays(
        "records", {"x": x, "y": 3 * x + rng.integers(-50, 51, num_rows), "z": rng.integers(0, 1_000, num_rows)}
    )


def ranges(dimension: str, lows: np.ndarray, width: int, query_type: int | None = None) -> list[Query]:
    return [Query.from_ranges({dimension: (int(low), int(low) + width)}, query_type=query_type) for low in lows]


@pytest.fixture(scope="module")
def records() -> dict[str, Record]:
    """One instance of each record, taken from a served lifecycle stack that
    merged, drifted and re-optimized, and from a sharded index.

    AGD samples 2,000 rows, windows hold 32 queries and 0.1% pending rows
    merge, so the stack does all of it in a few seconds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tsunami, "OPTIMIZER_SAMPLE_ROWS", 2_000)
        patch.setattr(lifecycle, "OBSERVE_WINDOW", 32)
        patch.setattr(lifecycle, "MERGE_PRESSURE", 0.001)
        return _served_records()


def _served_records() -> dict[str, Record]:
    rng = np.random.default_rng(11)
    workload = Workload(
        ranges("x", rng.integers(7_000, 9_500, 30), 300, 0) + ranges("y", rng.integers(0, 8_000, 30), 900, 1)
    )
    novel = ranges("z", rng.integers(0, 500, 32), 400)
    index = DeltaBufferedIndex(tsunami_factory, merge_threshold=1_000_000)
    index.build(make_table(), workload)
    manager = LifecycleManager(index)
    with ServingFrontend(manager, ServingConfig(max_batch_size=16, cache_entries=64)) as frontend:
        served = [frontend.query(query) for query in list(workload)[:20] * 2]
        frontend.insert_many([{"x": 5, "y": 15, "z": 5} for _ in range(10)])
        for query in novel:
            frontend.query(query)
        serving, batcher, cache = frontend.stats, frontend.batcher.stats, frontend.cache.stats
    base = index.base_index
    sharded = ShardedIndex(tsunami_factory, num_shards=2, shard_dimension="x")
    sharded.build(make_table())
    sharded.execute_batch(list(workload)[:4])
    found = {
        "ScanStats": served[0].stats,
        "PlanCacheStats": base.plan_cache_stats(),
        "FanOutStats": sharded.fault_stats,
        "MergeReport": index.merge_history[-1],
        "LifecycleReport": manager.report(),
        "IncrementalReport": IncrementalReoptimizer(base).reoptimize(Workload(novel)),
        "DriftReport": manager.detector.observe(list(workload)[:10] + novel),
        "BuildReport": base.build_report,
        "ResultCacheStats": cache,
        "BatcherStats": batcher,
        "ServingStats": serving,
    }
    assert {kind: type(record).__name__ for kind, record in found.items()} == {kind: kind for kind in found}
    return found


@pytest.mark.parametrize("kind", list(PROPERTIES))
def test_as_dict_holds_every_field_and_property_as_json(records, kind):
    record = records[kind]
    payload = record.as_dict()
    assert set(payload) == {f.name for f in fields(record)} | PROPERTIES[kind]
    for name in PROPERTIES[kind]:
        assert payload[name] == getattr(record, name)
    json.dumps(payload)  # raises on anything JSON cannot hold


def test_the_records_come_from_real_activity(records):
    """The fixture's records carry real activity, not only defaults."""
    lifecycle = records["LifecycleReport"].as_dict()
    assert {event["kind"] for event in lifecycle["events"]} >= {"merge", "drift"}
    merge = next(event for event in lifecycle["events"] if event["kind"] == "merge")
    assert merge["details"]["rows_merged"] == 10
    assert records["ResultCacheStats"].hits > 0
    assert records["BatcherStats"].batches > 0
    assert records["ScanStats"].points_scanned > 0
