"""Tests for repro.storage.column."""

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.storage.column import Column


class TestColumnConstruction:
    def test_from_integer_values(self):
        column = Column.from_values("a", [3, 1, 2])
        assert column.values.tolist() == [3, 1, 2]
        assert column.dictionary is None and column.scaler is None

    def test_from_float_values_scales(self):
        column = Column.from_values("price", [1.25, 2.50])
        assert column.scaler is not None
        assert column.values.tolist() == [125, 250]

    def test_from_string_values_dictionary_encodes(self):
        column = Column.from_values("mode", ["air", "ship", "air"])
        assert column.dictionary is not None
        assert column.values.tolist() == [0, 1, 0]

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", np.array([1]))

    def test_dictionary_and_scaler_mutually_exclusive(self):
        from repro.storage.dictionary import DictionaryEncoder
        from repro.storage.scaling import FixedPointScaler

        with pytest.raises(SchemaError):
            Column(
                "bad",
                np.array([1]),
                dictionary=DictionaryEncoder(["a"]),
                scaler=FixedPointScaler(1),
            )


class TestColumnAccess:
    def test_len_and_minmax(self):
        column = Column("a", np.array([5, 1, 9]))
        assert len(column) == 3
        assert column.min() == 1
        assert column.max() == 9

    def test_minmax_on_empty_raises(self):
        column = Column("a", np.array([], dtype=np.int64))
        with pytest.raises(SchemaError):
            column.min()

    def test_values_are_read_only(self):
        column = Column("a", np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            column.values[0] = 9

    def test_slice(self):
        column = Column("a", np.array([1, 2, 3, 4]))
        assert column.slice(1, 3).tolist() == [2, 3]

    def test_slice_is_read_only(self):
        # A slice used to hand out a writable window into the stored values;
        # mutating it corrupted the column behind the index's back.
        column = Column("a", np.array([1, 2, 3, 4]))
        view = column.slice(1, 3)
        with pytest.raises(ValueError):
            view[0] = 99
        assert column.values.tolist() == [1, 2, 3, 4]

    def test_narrowing_and_meta(self):
        column = Column("a", np.array([3, 250, 7]))
        assert column.dtype == np.uint8
        assert column.meta.min_value == 3 and column.meta.max_value == 250
        assert column.distinct_count() == 3
        wide = Column("a", np.array([-1, 2**40]))
        assert wide.dtype == np.int64


@pytest.fixture(params=["heap", "memory-mapped"])
def stored(request, tmp_path):
    """A column over ``[10, 20, 30, 40]`` in the heap or in a read-only file."""
    values = np.array([10, 20, 30, 40], dtype=np.int64)
    if request.param == "heap":
        return Column("a", values)
    np.save(tmp_path / "a.npy", values)
    column = Column("a", np.load(tmp_path / "a.npy", mmap_mode="r"), narrow=False)
    assert column.is_memory_mapped
    return column


class TestValuesArray:
    """A column hands out one read-only array, which follows its re-sorts."""

    @staticmethod
    def assert_one_read_only_array(column: Column, expected: list[int]) -> None:
        assert column.values is column.values
        assert not column.values.flags.writeable
        assert column.values.tolist() == expected

    def test_one_read_only_array(self, stored):
        self.assert_one_read_only_array(stored, [10, 20, 30, 40])
        with pytest.raises(ValueError):
            stored.values[0] = 9

    def test_follows_reorder(self, stored):
        stored.reorder(np.array([3, 2, 1, 0]))
        self.assert_one_read_only_array(stored, [40, 30, 20, 10])

    def test_follows_reorder_rows(self, stored, tmp_path):
        stored.reorder_rows(np.array([1, 0]), 1, 3)
        self.assert_one_read_only_array(stored, [10, 30, 20, 40])
        stored.reorder_rows(np.array([2, 1, 0]), 0, 3)
        self.assert_one_read_only_array(stored, [20, 30, 10, 40])
        if (tmp_path / "a.npy").exists():
            # The mapped file is never written through.
            assert np.load(tmp_path / "a.npy").tolist() == [10, 20, 30, 40]

    def test_reorder_rows_leaves_the_viewed_column_alone(self):
        owner = Column("a", np.array([10, 20, 30, 40]))
        view = Column("a", owner.slice(0, 4), narrow=False)
        view.reorder_rows(np.array([3, 2, 1, 0]), 0, 4)
        self.assert_one_read_only_array(view, [40, 30, 20, 10])
        self.assert_one_read_only_array(owner, [10, 20, 30, 40])


class TestValueConversion:
    def test_string_roundtrip(self):
        column = Column.from_values("mode", ["rail", "air"])
        assert column.to_user(column.to_storage("rail")) == "rail"

    def test_float_roundtrip(self):
        column = Column.from_values("price", [1.25, 9.99])
        assert column.to_user(column.to_storage(9.99)) == pytest.approx(9.99)

    def test_int_passthrough(self):
        column = Column.from_values("a", [1, 2])
        assert column.to_storage(7) == 7
        assert column.to_user(7) == 7


class TestReorder:
    def test_reorder_permutes_values(self):
        column = Column("a", np.array([10, 20, 30]))
        column.reorder(np.array([2, 0, 1]))
        assert column.values.tolist() == [30, 10, 20]

    def test_reorder_wrong_length_rejected(self):
        column = Column("a", np.array([1, 2, 3]))
        with pytest.raises(SchemaError):
            column.reorder(np.array([0, 1]))

    def test_size_bytes(self):
        # Values 0..99 narrow to uint8: one byte per row.
        column = Column("a", np.arange(100))
        assert column.size_bytes() == 100
        wide = Column("a", np.arange(100), narrow=False)
        assert wide.size_bytes() >= 800
