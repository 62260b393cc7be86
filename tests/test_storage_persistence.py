"""Tests for table and index snapshots (§8 extension, repro.storage.persistence)."""

import json
from functools import partial

import numpy as np
import pytest

from repro.baselines import KdTreeIndex
from repro.common.errors import IndexBuildError, SchemaError
from repro.core.delta import DeltaBufferedIndex
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.persistence import (
    load_index,
    load_table,
    save_index,
    save_table,
    snapshot_info,
)
from repro.storage.table import Table


def mixed_table(num_rows: int = 1_000, seed: int = 3) -> Table:
    """A table exercising all three column encodings (int, float, string)."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        "mixed",
        {
            "quantity": rng.integers(0, 100, num_rows).tolist(),
            "price": np.round(rng.uniform(1, 500, num_rows), 2).tolist(),
            "mode": [["air", "rail", "ship", "truck"][i] for i in rng.integers(0, 4, num_rows)],
        },
    )


class TestTableRoundTrip:
    def test_values_and_name_survive(self, tmp_path):
        table = mixed_table()
        save_table(table, tmp_path)
        loaded = load_table(tmp_path)
        assert loaded.name == table.name
        assert loaded.num_rows == table.num_rows
        for name in table.column_names:
            assert np.array_equal(loaded.values(name), table.values(name))

    def test_encodings_survive(self, tmp_path):
        table = mixed_table()
        save_table(table, tmp_path)
        loaded = load_table(tmp_path)
        assert loaded.column("mode").to_user(0) == table.column("mode").to_user(0)
        assert loaded.column("price").to_storage(12.34) == table.column("price").to_storage(12.34)
        assert loaded.column("quantity").dictionary is None
        assert loaded.column("quantity").scaler is None

    def test_physical_row_order_survives(self, tmp_path):
        table = mixed_table()
        permutation = np.random.default_rng(9).permutation(table.num_rows)
        table.reorder(permutation)
        save_table(table, tmp_path)
        loaded = load_table(tmp_path)
        assert np.array_equal(loaded.values("quantity"), table.values("quantity"))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_table(tmp_path)

    def test_version_mismatch_rejected(self, tmp_path):
        table = mixed_table(num_rows=10)
        save_table(table, tmp_path)
        manifest_path = tmp_path / "table.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError):
            load_table(tmp_path)

    def test_save_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "snapshot"
        table = mixed_table(num_rows=10)
        save_table(table, target)
        assert (target / "table.json").exists()
        # v2 layout: one raw (mmap-shareable) .npy file per column.
        npy_files = sorted((target / "columns").glob("*.npy"))
        assert len(npy_files) == len(table.column_names)


class TestIndexRoundTrip:
    def queries(self, table: Table) -> list[Query]:
        bounds = table.bounds("quantity")
        return [
            Query.from_ranges({"quantity": (bounds[0], (bounds[0] + bounds[1]) // 2)}),
            Query.from_user_values(table, {"price": (10.0, 200.0)}),
            Query.from_user_values(table, {"mode": ("air", "air")}),
        ]

    def test_kdtree_round_trip(self, tmp_path):
        table = mixed_table()
        index = KdTreeIndex(page_size=128).build(table, None)
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert isinstance(loaded, KdTreeIndex)
        for query in self.queries(loaded.table):
            expected, _ = execute_full_scan(loaded.table, query)
            assert loaded.execute(query).value == expected

    def test_tsunami_round_trip(self, tmp_path, fresh_table, fresh_workload):
        index = TsunamiIndex(TsunamiConfig(optimizer_iterations=1)).build(
            fresh_table, fresh_workload
        )
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert isinstance(loaded, TsunamiIndex)
        assert loaded.index_size_bytes() == index.index_size_bytes()
        for query in list(fresh_workload)[:15]:
            expected, _ = execute_full_scan(loaded.table, query)
            assert loaded.execute(query).value == expected

    def test_older_tsunami_snapshot_loads(self, tmp_path, fresh_table, fresh_workload):
        """Grids are pickled without their role tables, and older snapshots
        pickled the removed ``BuildReport.details`` and
        ``TsunamiConfig.plan_cache_entries``: a loaded index rebuilds every
        role table, plans and answers exactly as the saved one, and reports
        no ``details``."""
        index = TsunamiIndex(TsunamiConfig(optimizer_iterations=1)).build(
            fresh_table, fresh_workload
        )
        # As older snapshots hold them.
        index.build_report.__dict__["details"] = {}
        index.config.__dict__["plan_cache_entries"] = 4096
        grids = [region.grid for region in index._regions if region.grid is not None]
        assert grids
        for grid in grids:
            assert "_roles" not in grid.__getstate__()
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert "details" not in loaded.build_report.as_dict()
        partitioned = [
            region.grid
            for region in loaded._regions
            if region.grid is not None
            and any(region.grid.config.partitions[dim] > 1 for dim in region.grid.grid_dimensions)
        ]
        assert partitioned
        for grid in partitioned:
            assert grid._roles
        for query in list(fresh_workload)[:15]:
            assert loaded._ranges_for_query(query) == index._ranges_for_query(query)
            assert loaded.execute(query).value == index.execute(query).value

    def test_original_index_still_usable_after_save(self, tmp_path, fresh_table, fresh_workload):
        index = TsunamiIndex(TsunamiConfig(optimizer_iterations=1)).build(
            fresh_table, fresh_workload
        )
        save_index(index, tmp_path)
        query = list(fresh_workload)[0]
        expected, _ = execute_full_scan(index.table, query)
        assert index.execute(query).value == expected

    def test_unbuilt_index_rejected(self, tmp_path):
        with pytest.raises(IndexBuildError):
            save_index(KdTreeIndex(), tmp_path)

    def test_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(IndexBuildError):
            load_index(tmp_path)

    def test_unsupported_object_raises_typed_error(self, tmp_path):
        # The historical failure mode was an AttributeError on `_table`
        # mid-write; anything outside the snapshot contract must fail with
        # the typed error before touching the disk.
        class NotAnIndex:
            is_built = True

        with pytest.raises(IndexBuildError, match="does not support snapshotting"):
            save_index(NotAnIndex(), tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestDeltaRoundTrip:
    """`save_index` on a DeltaBufferedIndex used to crash with AttributeError
    ('_table'), silently losing pending inserts; these tests pin the fix."""

    def build_delta(self, merge_threshold: int = 1_000_000) -> DeltaBufferedIndex:
        table = mixed_table()
        index = DeltaBufferedIndex(
            partial(KdTreeIndex, page_size=128), merge_threshold=merge_threshold
        )
        return index.build(table, None)

    def pending_rows(self, count: int, seed: int = 5) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [
            {
                "quantity": int(rng.integers(0, 100)),
                "price": round(float(rng.uniform(1, 500)), 2),
                "mode": ["air", "rail", "ship", "truck"][int(rng.integers(0, 4))],
            }
            for _ in range(count)
        ]

    def queries(self) -> list[Query]:
        return [
            Query.from_ranges({"quantity": (0, 50)}),
            Query.from_ranges({"quantity": (0, 99)}, aggregate="sum", aggregate_column="quantity"),
            Query.from_ranges({"quantity": (10, 40)}, aggregate="avg", aggregate_column="quantity"),
            Query.from_ranges({"quantity": (90, 99)}, aggregate="min", aggregate_column="quantity"),
        ]

    def test_round_trip_with_pending_inserts(self, tmp_path):
        index = self.build_delta()
        index.insert_many(self.pending_rows(64))
        assert index.num_pending == 64
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert isinstance(loaded, DeltaBufferedIndex)
        assert loaded.num_pending == 64
        assert loaded.num_rows == index.num_rows
        for name in index.buffer.column_names:
            assert np.array_equal(loaded.buffer.column(name), index.buffer.column(name))
        for query in self.queries():
            assert loaded.execute(query).value == index.execute(query).value

    def test_round_trip_with_empty_buffer(self, tmp_path):
        index = self.build_delta()
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.num_pending == 0
        for query in self.queries():
            assert loaded.execute(query).value == index.execute(query).value

    def test_original_index_still_usable_after_save(self, tmp_path):
        index = self.build_delta()
        index.insert_many(self.pending_rows(16))
        save_index(index, tmp_path)
        assert index.num_pending == 16
        query = self.queries()[0]
        expected, _ = execute_full_scan(index.table, query)
        assert index.execute(query).value >= expected  # buffer rows still counted

    def test_loaded_index_can_keep_inserting_and_merge(self, tmp_path):
        index = self.build_delta()
        index.insert_many(self.pending_rows(8))
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        loaded.insert_many(self.pending_rows(8, seed=6))
        assert loaded.num_pending == 16
        report = loaded.merge()
        assert report is not None and report.rows_merged == 16
        assert loaded.num_pending == 0

    def test_lambda_factory_falls_back_to_wrapped_class(self, tmp_path):
        table = mixed_table()
        index = DeltaBufferedIndex(
            lambda: KdTreeIndex(page_size=128), merge_threshold=1_000_000
        )
        index.build(table, None)
        index.insert_many(self.pending_rows(4))
        save_index(index, tmp_path)
        assert not (tmp_path / "factory.pkl").exists()
        loaded = load_index(tmp_path)
        assert loaded.num_pending == 4
        # The fallback factory rebuilds the wrapped class, so merges work.
        assert loaded.merge().rows_merged == 4

    def test_rebuild_workload_survives_the_snapshot(self, tmp_path):
        table = mixed_table()
        workload = Workload(
            [Query.from_ranges({"quantity": (0, 50)}) for _ in range(3)],
            name="rebuilds",
        )
        index = DeltaBufferedIndex(
            partial(KdTreeIndex, page_size=128), merge_threshold=1_000_000
        )
        index.build(table, workload)
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.workload is not None
        assert list(loaded.workload) == list(workload)

    def test_snapshot_info_reports_delta_kind(self, tmp_path):
        index = self.build_delta()
        index.insert_many(self.pending_rows(10))
        save_index(index, tmp_path)
        info = snapshot_info(tmp_path)
        assert info["index"]["kind"] == "delta"
        assert info["index"]["index_name"] == "delta-buffered"


class TestShardedRoundTrip:
    def build_sharded(self, factory=None) -> ShardedIndex:
        table = mixed_table()
        index = ShardedIndex(
            factory or partial(KdTreeIndex, page_size=128),
            num_shards=3,
            shard_dimension="quantity",
        )
        return index.build(table, None)

    def queries(self) -> list[Query]:
        return [
            Query.from_ranges({"quantity": (0, 30)}),
            Query.from_ranges({"quantity": (0, 99)}, aggregate="sum", aggregate_column="quantity"),
            Query.from_ranges({"quantity": (40, 70)}, aggregate="avg", aggregate_column="quantity"),
        ]

    def test_round_trip_per_shard_subdirectories(self, tmp_path):
        index = self.build_sharded()
        save_index(index, tmp_path)
        assert (tmp_path / "sharded.json").exists()
        for position in range(len(index.shards)):
            assert (tmp_path / f"shard_{position:02d}" / "index.json").exists()
        loaded = load_index(tmp_path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.boundaries == index.boundaries
        assert loaded.dimension == index.dimension
        assert loaded.num_rows == index.num_rows
        for query in self.queries():
            assert loaded.execute(query).value == index.execute(query).value

    def test_round_trip_with_updatable_shards_and_pending(self, tmp_path):
        factory = partial(
            DeltaBufferedIndex, partial(KdTreeIndex, page_size=128),
            merge_threshold=1_000_000,
        )
        index = self.build_sharded(factory)
        rng = np.random.default_rng(9)
        index.insert_many(
            [
                {
                    "quantity": int(rng.integers(0, 100)),
                    "price": round(float(rng.uniform(1, 500)), 2),
                    "mode": "air",
                }
                for _ in range(40)
            ]
        )
        assert index.num_pending == 40
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.num_pending == 40
        for query in self.queries():
            assert loaded.execute(query).value == index.execute(query).value

    def test_snapshot_info_reports_sharded_kind(self, tmp_path):
        save_index(self.build_sharded(), tmp_path)
        info = snapshot_info(tmp_path)
        assert info["index"]["kind"] == "sharded"
        assert info["index"]["index_name"] == "sharded"

    def test_loaded_shards_serve_off_memory_mapped_columns(self, tmp_path):
        """Shard workers loading one snapshot must share pages, not copies:
        every shard column is ``np.memmap``-backed after a default load, and
        pending delta inserts still round-trip exactly alongside them."""
        factory = partial(
            DeltaBufferedIndex, partial(KdTreeIndex, page_size=128),
            merge_threshold=1_000_000,
        )
        index = self.build_sharded(factory)
        rng = np.random.default_rng(21)
        pending = [
            {
                "quantity": int(rng.integers(0, 100)),
                "price": round(float(rng.uniform(1, 500)), 2),
                "mode": "rail",
            }
            for _ in range(24)
        ]
        index.insert_many(pending)
        save_index(index, tmp_path)

        loaded = load_index(tmp_path)  # mmap_mode="r" is the default
        for shard in loaded.shards:
            shard_table = shard.base_index.table
            for name in shard_table.column_names:
                column = shard_table.column(name)
                assert column.is_memory_mapped
                array = column.values
                while array is not None and not isinstance(array, np.memmap):
                    array = array.base
                assert isinstance(array, np.memmap)
        assert loaded.num_pending == 24
        for original_shard, loaded_shard in zip(index.shards, loaded.shards):
            for name in original_shard.buffer.column_names:
                assert np.array_equal(
                    loaded_shard.buffer.column(name),
                    original_shard.buffer.column(name),
                )
        for query in self.queries():
            assert loaded.execute(query).value == index.execute(query).value

        eager = load_index(tmp_path, mmap_mode=None)
        first_table = eager.shards[0].base_index.table
        assert not any(
            first_table.column(name).is_memory_mapped
            for name in first_table.column_names
        )

    def test_narrow_dtypes_survive_sharded_round_trip(self, tmp_path):
        index = self.build_sharded()
        save_index(index, tmp_path)
        loaded = load_index(tmp_path)
        for original_shard, loaded_shard in zip(index.shards, loaded.shards):
            for name in original_shard.table.column_names:
                original = original_shard.table.column(name)
                restored = loaded_shard.table.column(name)
                assert restored.dtype == original.dtype
                assert restored.size_bytes() == original.size_bytes()
                assert np.array_equal(restored.values, original.values)


class TestSnapshotInfo:
    def test_table_only_snapshot(self, tmp_path):
        save_table(mixed_table(num_rows=20), tmp_path)
        info = snapshot_info(tmp_path)
        assert info["table"]["num_rows"] == 20
        assert "index" not in info

    def test_full_snapshot(self, tmp_path):
        table = mixed_table(num_rows=200)
        index = KdTreeIndex(page_size=64).build(table, None)
        save_index(index, tmp_path)
        info = snapshot_info(tmp_path)
        assert info["index"]["index_name"] == "kd-tree"
        assert info["index"]["num_rows"] == 200
        assert info["table"]["name"] == "mixed"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            snapshot_info(tmp_path)


class TestCrashSafety:
    """save_index stages into a temp sibling and swaps atomically, so a crash
    mid-write (injected at the ``persistence.save`` site) never corrupts or
    removes an existing snapshot."""

    def build_index(self, seed: int = 3) -> KdTreeIndex:
        return KdTreeIndex(page_size=128).build(mixed_table(seed=seed), None)

    def test_failed_save_preserves_previous_snapshot(self, tmp_path):
        from repro.common import faults
        from repro.common.errors import InjectedFault
        from repro.common.faults import FaultPlan, FaultSpec

        target = tmp_path / "snap"
        first = self.build_index(seed=3)
        save_index(first, target)
        second = self.build_index(seed=4)
        plan = FaultPlan([FaultSpec(site="persistence.save")])
        with faults.active(plan):
            with pytest.raises(InjectedFault):
                save_index(second, target)
        assert plan.injected("persistence.save") == 1
        # The old snapshot is intact and still loads the *first* index.
        loaded = load_index(target)
        assert loaded.table.num_rows == first.table.num_rows
        query = Query.from_ranges({"quantity": (0, 50)})
        assert loaded.execute(query).value == first.execute(query).value
        # The failed staging directory was cleaned up.
        assert not (tmp_path / "snap.saving").exists()

    def test_failed_first_save_leaves_nothing_behind(self, tmp_path):
        from repro.common import faults
        from repro.common.errors import InjectedFault
        from repro.common.faults import FaultPlan, FaultSpec

        target = tmp_path / "snap"
        plan = FaultPlan([FaultSpec(site="persistence.save")])
        with faults.active(plan):
            with pytest.raises(InjectedFault):
                save_index(self.build_index(), target)
        assert not target.exists()
        assert not (tmp_path / "snap.saving").exists()
        with pytest.raises(IndexBuildError):
            load_index(target)

    def test_fault_inside_nested_shard_write_preserves_previous(self, tmp_path):
        from repro.common import faults
        from repro.common.faults import FaultPlan, FaultSpec

        target = tmp_path / "snap"
        table = mixed_table()
        sharded = ShardedIndex(
            partial(KdTreeIndex, page_size=128),
            num_shards=3,
            shard_dimension="quantity",
        ).build(table, None)
        save_index(sharded, target)
        # Crash while writing the second shard of the *replacement* snapshot.
        plan = FaultPlan([FaultSpec(site="persistence.save", key="shard_01")])
        with faults.active(plan):
            with pytest.raises(Exception):
                save_index(sharded, target)
        loaded = load_index(target)
        assert len(loaded.shards) == 3
        query = Query.from_ranges({"quantity": (0, 99)})
        expected, _ = execute_full_scan(table, query)
        assert loaded.execute(query).value == expected

    def test_successful_overwrite_leaves_no_residue(self, tmp_path):
        target = tmp_path / "snap"
        save_index(self.build_index(seed=3), target)
        replacement = self.build_index(seed=5)
        save_index(replacement, target)
        assert not (tmp_path / "snap.saving").exists()
        assert not (tmp_path / "snap.old").exists()
        loaded = load_index(target)
        query = Query.from_ranges({"quantity": (0, 50)})
        assert loaded.execute(query).value == replacement.execute(query).value
