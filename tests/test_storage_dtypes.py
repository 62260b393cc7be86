"""Property-based tests (hypothesis) for narrow-dtype storage round-trips.

The invariant under test: narrowing the physical dtype is invisible to every
layer above storage.  Values survive ``Column.from_values`` → ``reorder`` →
delta insert/merge (including overflow widening past the current dtype's
range) → ``save_index``/``load_index`` (both memory-mapped and in-memory)
bit-exactly, and the dtype plus ``size_bytes()`` are deterministic functions
of the value range.
"""

import tempfile
from functools import partial

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import KdTreeIndex
from repro.common.validation import STORAGE_DTYPES, narrowest_dtype
from repro.core.delta import DeltaBufferedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.persistence import load_index, load_table, save_index, save_table
from repro.storage.table import Table

PROP = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: One (low, high) regime per storage dtype, so narrowing exercises the
#: whole ladder rather than whatever range a uniform draw happens to hit.
REGIMES = st.sampled_from(
    [
        (0, 255),
        (-(2**15), 2**15 - 1),
        (-(2**31), 2**31 - 1),
        (-(2**62), 2**62),
    ]
)


@st.composite
def bounded_arrays(draw, min_size=1, max_size=200):
    low, high = draw(REGIMES)
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(
        st.lists(
            st.integers(min_value=low, max_value=high),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(values, dtype=np.int64)


class TestNarrowestDtype:
    @PROP
    @given(
        low=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        high=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    def test_minimal_covering_dtype(self, low, high):
        low, high = min(low, high), max(low, high)
        dtype = narrowest_dtype(low, high)
        info = np.iinfo(dtype)
        assert info.min <= low and high <= info.max
        # No strictly narrower rung of the ladder also covers the range.
        for candidate in STORAGE_DTYPES:
            candidate_info = np.iinfo(candidate)
            if np.dtype(candidate).itemsize < np.dtype(dtype).itemsize:
                assert not (candidate_info.min <= low and high <= candidate_info.max)


class TestColumnRoundTrip:
    @PROP
    @given(values=bounded_arrays(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_from_values_then_reorder_preserves_everything(self, values, seed):
        column = Column.from_values("c", values.tolist())
        expected_dtype = narrowest_dtype(int(values.min()), int(values.max()))
        assert column.dtype == expected_dtype
        assert np.array_equal(column.values.astype(np.int64), values)
        size_before = column.size_bytes()
        assert size_before == values.size * np.dtype(expected_dtype).itemsize

        permutation = np.random.default_rng(seed).permutation(values.size)
        column.reorder(permutation)
        assert column.dtype == expected_dtype
        assert column.size_bytes() == size_before
        assert np.array_equal(column.values.astype(np.int64), values[permutation])

    @PROP
    @given(values=bounded_arrays(max_size=60))
    def test_save_load_table_preserves_dtype_and_bytes(self, values):
        table = Table.from_arrays("t", {"a": values, "b": np.arange(values.size)})
        with tempfile.TemporaryDirectory() as target:
            save_table(table, target)
            for mmap_mode in (None, "r"):
                loaded = load_table(target, mmap_mode=mmap_mode)
                for name in ("a", "b"):
                    original = table.column(name)
                    restored = loaded.column(name)
                    assert restored.dtype == original.dtype
                    assert restored.size_bytes() == original.size_bytes()
                    assert np.array_equal(restored.values, original.values)


class TestDeltaMergeWidening:
    def build_index(self, values: np.ndarray) -> DeltaBufferedIndex:
        table = Table.from_arrays(
            "t", {"a": values, "b": np.arange(values.size)}
        )
        index = DeltaBufferedIndex(
            partial(KdTreeIndex, page_size=64), merge_threshold=1_000_000
        )
        return index.build(table, None)

    @PROP
    @given(
        base=bounded_arrays(min_size=4, max_size=80),
        inserted=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=1,
            max_size=20,
        ),
    )
    def test_merge_widens_to_cover_inserted_range(self, base, inserted):
        index = self.build_index(base)
        index.insert_many(
            [{"a": int(value), "b": -1 - position} for position, value in enumerate(inserted)]
        )
        report = index.merge()
        assert report is not None and report.rows_merged == len(inserted)

        merged = np.concatenate([base, np.asarray(inserted, dtype=np.int64)])
        column = index.table.column("a")
        assert column.dtype == narrowest_dtype(int(merged.min()), int(merged.max()))
        # Clustering may reorder rows; the multiset of values is preserved.
        assert np.array_equal(
            np.sort(column.values.astype(np.int64)), np.sort(merged)
        )
        assert column.size_bytes() == merged.size * column.itemsize

    def test_uint8_column_widens_past_overflow(self):
        index = self.build_index(np.arange(10))
        assert index.table.column("a").dtype == np.uint8
        index.insert_many([{"a": 1_000_000, "b": -1}])
        index.merge()
        assert index.table.column("a").dtype == np.int32
        assert int(index.table.column("a").values.max()) == 1_000_000


class TestIndexSnapshotRoundTrip:
    @PROP
    @given(
        base=bounded_arrays(min_size=4, max_size=60),
        pending=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=0,
            max_size=8,
        ),
    )
    def test_save_load_index_preserves_dtype_values_and_pending(self, base, pending):
        table = Table.from_arrays("t", {"a": base, "b": np.arange(base.size)})
        index = DeltaBufferedIndex(
            partial(KdTreeIndex, page_size=64), merge_threshold=1_000_000
        )
        index.build(table, None)
        index.insert_many(
            [{"a": int(value), "b": -1 - position} for position, value in enumerate(pending)]
        )
        with tempfile.TemporaryDirectory() as target:
            save_index(index, target)
            for mmap_mode in (None, "r"):
                loaded = load_index(target, mmap_mode=mmap_mode)
                assert loaded.num_pending == len(pending)
                for name in ("a", "b"):
                    original = index.table.column(name)
                    restored = loaded.table.column(name)
                    assert restored.dtype == original.dtype
                    assert restored.size_bytes() == original.size_bytes()
                    assert np.array_equal(restored.values, original.values)
                    assert restored.is_memory_mapped == (mmap_mode == "r")
                    assert np.array_equal(
                        loaded.buffer.table.values(name), index.buffer.table.values(name)
                    )


class TestInt64Twin:
    def test_narrow_table_matches_its_int64_twin(self):
        """One index over a narrow table and over its ``narrow=False`` twin.

        Answers and points scanned are identical; the narrow side never reads
        more bytes (x fits int32 and z int16, so it reads strictly fewer).
        """
        rng = np.random.default_rng(13)
        x = rng.integers(0, 100_000, 10_000)
        columns = {
            "x": x,
            "y": x * 3 + rng.integers(-500, 501, x.size),
            "z": rng.integers(0, 5_000, x.size),
        }
        templates = []
        for _ in range(12):
            low = int(rng.integers(0, 90_000))
            templates.append(
                Query.from_ranges(
                    {
                        "x": (low, low + int(rng.integers(500, 5_000))),
                        "z": (0, int(rng.integers(500, 4_000))),
                    }
                )
            )
        stream = [templates[int(i)] for i in rng.integers(0, len(templates), 200)]
        outcomes = {}
        for narrow in (True, False):
            table = Table.from_arrays(
                "twin", {name: values.copy() for name, values in columns.items()}, narrow=narrow
            )
            index = TsunamiIndex(TsunamiConfig(optimizer_iterations=1))
            index.build(table, Workload(templates))
            outcomes[narrow] = QueryEngine(index=index).run_batch(stream)
        narrow_side, int64_side = outcomes[True], outcomes[False]
        assert [r.value for r in narrow_side] == [r.value for r in int64_side]
        assert [r.stats.points_scanned for r in narrow_side] == [
            r.stats.points_scanned for r in int64_side
        ]
        narrow_bytes = sum(r.stats.bytes_scanned for r in narrow_side)
        assert 0 < narrow_bytes < sum(r.stats.bytes_scanned for r in int64_side)
