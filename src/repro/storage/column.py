"""A single typed column of the in-memory column store.

The user-facing value domain is 64-bit integers (§6.1 of the paper), but the
physical representation narrows to the smallest integer dtype that covers the
value range (uint8/int16/int32/int64).  A column remembers how its values were
produced — directly as integers, via fixed-point scaling of floats, or via
dictionary encoding of strings — so user-facing values can be converted to
storage values (for query predicates) and back (for display).  Physical
storage details live in :class:`StorageMeta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import SchemaError
from repro.common.validation import ensure_integral_array, narrowest_dtype
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.scaling import FixedPointScaler


@dataclass
class StorageMeta:
    """Physical storage metadata for one column.

    ``min_value`` / ``max_value`` are ``None`` for empty columns and for
    columns constructed with ``narrow=False`` where the bounds were never
    scanned (e.g. zero-copy subset views over memory-mapped files).
    ``distinct_count`` is filled lazily by :meth:`Column.distinct_count`.
    """

    dtype: np.dtype
    min_value: int | None = None
    max_value: int | None = None
    distinct_count: int | None = None

    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.dtype).itemsize)


class Column:
    """An immutable-length, reorderable column of integer values.

    With ``narrow=True`` (the default) the stored dtype is the smallest of
    ``uint8``/``int16``/``int32``/``int64`` covering the value range.  With
    ``narrow=False`` an existing integer dtype is preserved as-is — used for
    zero-copy views (subsetting, mmap-backed loads) and for forced-``int64``
    baseline tables in benchmarks.  Passing a ``meta`` whose dtype matches the
    input skips the min/max scan entirely, which keeps memory-mapped loads
    from touching any pages.
    """

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        dictionary: DictionaryEncoder | None = None,
        scaler: FixedPointScaler | None = None,
        *,
        narrow: bool = True,
        meta: StorageMeta | None = None,
    ) -> None:
        if not name:
            raise SchemaError("column name must be a non-empty string")
        if dictionary is not None and scaler is not None:
            raise SchemaError(
                f"column {name!r} cannot be both dictionary-encoded and float-scaled"
            )
        self.name = name
        array = ensure_integral_array(values, name=f"column {name!r}")
        if meta is not None and np.dtype(meta.dtype) == array.dtype:
            self._meta = meta
        elif narrow and array.size:
            low = int(array.min())
            high = int(array.max())
            dtype = narrowest_dtype(low, high)
            array = array.astype(dtype, copy=False)
            self._meta = StorageMeta(dtype=dtype, min_value=low, max_value=high)
        else:
            if narrow:
                array = array.astype(np.int64, copy=False)
            self._meta = StorageMeta(dtype=array.dtype)
        self._store(array)
        self.dictionary = dictionary
        self.scaler = scaler

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_values(cls, name: str, values: Sequence) -> "Column":
        """Build a column from raw user values, inferring the encoding.

        Strings are dictionary-encoded; floats are fixed-point scaled by the
        smallest power of ten that makes them integral; integers are stored
        as-is.
        """
        sample = list(values)
        if sample and isinstance(sample[0], str):
            dictionary = DictionaryEncoder(sample)
            return cls(name, dictionary.encode(sample), dictionary=dictionary)
        array = np.asarray(sample)
        if array.dtype.kind == "U" or array.dtype.kind == "O":
            dictionary = DictionaryEncoder([str(v) for v in sample])
            return cls(
                name,
                dictionary.encode([str(v) for v in sample]),
                dictionary=dictionary,
            )
        if np.issubdtype(array.dtype, np.floating):
            scaler = FixedPointScaler.fit(array)
            return cls(name, scaler.transform(array), scaler=scaler)
        return cls(name, array)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __repr__(self) -> str:
        kind = "dict" if self.dictionary else ("scaled" if self.scaler else "int")
        return (
            f"Column(name={self.name!r}, rows={len(self)}, kind={kind}, "
            f"dtype={self.dtype.name})"
        )

    # -- access -------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The stored integer values: one read-only view, the same on every read."""
        return self._readonly

    def _store(self, array: np.ndarray) -> None:
        """Make ``array`` the column's storage, with its read-only view."""
        self._values = array
        self._readonly = array.view()
        self._readonly.flags.writeable = False

    @property
    def dtype(self) -> np.dtype:
        """Physical storage dtype of the column."""
        return self._values.dtype

    @property
    def itemsize(self) -> int:
        """Bytes per stored value."""
        return int(self._values.dtype.itemsize)

    @property
    def meta(self) -> StorageMeta:
        """Physical storage metadata (dtype, bounds, distinct-count cache)."""
        return self._meta

    @property
    def is_memory_mapped(self) -> bool:
        """True when the stored values are backed by a memory-mapped file."""
        array = self._values
        return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of the stored values in physical rows ``[start, stop)``."""
        return self._readonly[start:stop]

    def min(self) -> int:
        """Minimum stored value (raises on an empty column)."""
        if len(self) == 0:
            raise SchemaError(f"column {self.name!r} is empty")
        if self._meta.min_value is None:
            self._meta.min_value = int(self._values.min())
        return self._meta.min_value

    def max(self) -> int:
        """Maximum stored value (raises on an empty column)."""
        if len(self) == 0:
            raise SchemaError(f"column {self.name!r} is empty")
        if self._meta.max_value is None:
            self._meta.max_value = int(self._values.max())
        return self._meta.max_value

    def distinct_count(self) -> int:
        """Number of distinct stored values (computed once, then cached)."""
        if self._meta.distinct_count is None:
            self._meta.distinct_count = int(np.unique(self._values).size)
        return self._meta.distinct_count

    # -- value conversion ----------------------------------------------------

    def to_storage(self, value) -> int:
        """Convert a user-facing value into the stored integer domain."""
        if self.dictionary is not None:
            return self.dictionary.encode_one(str(value))
        if self.scaler is not None:
            return self.scaler.transform_scalar(float(value))
        return int(value)

    def to_storage_array(self, values: Sequence) -> np.ndarray:
        """Vectorized :meth:`to_storage`: convert a whole sequence at once.

        Every insert converts its values here.  A value the column cannot
        store, including one outside the ``int64`` storage domain, raises
        :class:`SchemaError`.
        """
        if self.dictionary is not None:
            try:
                return self.dictionary.encode([str(value) for value in values])
            except SchemaError as exc:
                raise SchemaError(
                    f"values cannot be stored in column {self.name!r}: {exc}"
                ) from exc
        try:
            if self.scaler is not None:
                return self.scaler.transform(np.asarray(values, dtype=np.float64))
            return np.asarray(values, dtype=np.int64)
        except (ValueError, TypeError, OverflowError, SchemaError) as exc:
            raise SchemaError(
                f"values cannot be stored in column {self.name!r}: {exc}"
            ) from exc

    def to_user(self, value: int):
        """Convert a stored integer back to its user-facing value."""
        if self.dictionary is not None:
            return self.dictionary.decode_one(int(value))
        if self.scaler is not None:
            return float(value) / self.scaler.factor
        return int(value)

    # -- mutation (clustered reorganization only) ----------------------------

    def reorder(self, permutation: np.ndarray) -> None:
        """Physically reorder the column rows by ``permutation``.

        This is the primitive used by clustered indexes to own the physical
        layout; it is the only supported mutation of a column.  The storage
        dtype and bounds are unaffected (a permutation is value-preserving).
        """
        permutation = np.asarray(permutation)
        if permutation.shape != (len(self),):
            raise SchemaError(
                f"permutation length {permutation.shape} does not match column "
                f"length {len(self)}"
            )
        self._store(self._values[permutation])

    def reorder_rows(self, rows: np.ndarray, start: int, stop: int) -> None:
        """Physically reorder only the rows in ``[start, stop)`` by ``rows``.

        ``rows`` is a permutation *relative to the slice*: after the call,
        slice position ``i`` holds the value previously at ``start + rows[i]``.
        Rows outside the range are untouched, so a local merge re-sorts one
        region's row range without rewriting the whole column.  Like
        :meth:`reorder` this is value-preserving: dtype and bounds metadata
        are unaffected.  A read-only backing array (e.g. a column loaded with
        ``mmap_mode="r"``) is copied into the heap first — the mapped file is
        never written through.
        """
        rows = np.asarray(rows)
        if stop < start or start < 0 or stop > len(self):
            raise SchemaError(
                f"row range [{start}, {stop}) is outside column "
                f"{self.name!r} of length {len(self)}"
            )
        if rows.shape != (stop - start,):
            raise SchemaError(
                f"slice permutation length {rows.shape} does not match row "
                f"range [{start}, {stop})"
            )
        if not self._values.flags.writeable:
            self._store(np.array(self._values))
        self._values[start:stop] = self._values[start:stop][rows]

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the stored values."""
        total = int(self._values.nbytes)
        if self.dictionary is not None:
            total += self.dictionary.size_bytes()
        return total

    def describe(self) -> dict:
        """Storage breakdown of this column for reports and artifacts."""
        kind = "dictionary" if self.dictionary else ("scaled" if self.scaler else "int")
        info = {
            "name": self.name,
            "kind": kind,
            "dtype": self.dtype.name,
            "num_rows": len(self),
            "size_bytes": self.size_bytes(),
        }
        if len(self):
            info["min"] = self.min()
            info["max"] = self.max()
            info["distinct_count"] = self.distinct_count()
        return info
