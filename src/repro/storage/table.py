"""The clustered in-memory table used by every index in the reproduction.

A :class:`Table` owns a set of equal-length :class:`~repro.storage.column.Column`
objects.  The physical row order is shared by all columns and is controlled by
whichever index currently clusters the table (via :meth:`Table.reorder`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import SchemaError
from repro.storage.column import Column


class Table:
    """A named collection of equal-length columns with a shared row order."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise SchemaError("table name must be a non-empty string")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} has columns of differing lengths: {sorted(lengths)}"
            )
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names: {names}")
        self.name = name
        self._columns: dict[str, Column] = {column.name: column for column in columns}
        self._num_rows = lengths.pop()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Sequence]) -> "Table":
        """Build a table from ``{column name: values}``, inferring encodings."""
        columns = [Column.from_values(col, values) for col, values in data.items()]
        return cls(name, columns)

    @classmethod
    def from_arrays(
        cls, name: str, data: Mapping[str, np.ndarray], *, narrow: bool = True
    ) -> "Table":
        """Build a table from already-integral NumPy arrays (no re-encoding).

        ``narrow=False`` preserves each array's integer dtype instead of
        narrowing to the smallest covering dtype — benchmarks use it to build
        forced-``int64`` baseline tables.
        """
        columns = [
            Column(col, np.asarray(values), narrow=narrow)
            for col, values in data.items()
        ]
        return cls(name, columns)

    @classmethod
    def concat(cls, name: str, tables: Sequence["Table"]) -> "Table":
        """The rows of ``tables`` one after another, in the first table's encodings.

        Each column lands on the narrowest dtype covering the concatenated
        values, so rows outside a narrow column's range widen that column
        instead of wrapping.
        """
        columns = [
            Column(
                column.name,
                np.concatenate([table.values(column.name) for table in tables]),
                dictionary=column.dictionary,
                scaler=column.scaler,
            )
            for column in tables[0]._columns.values()
        ]
        return cls(name, columns)

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self._num_rows}, "
            f"columns={list(self._columns)})"
        )

    # -- accessors ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows (points) in the table."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def num_dimensions(self) -> int:
        """Number of columns, i.e. the dimensionality of the data space."""
        return len(self._columns)

    def column(self, name: str) -> Column:
        """Return the column called ``name`` or raise :class:`SchemaError`."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {list(self._columns)}"
            ) from None

    def values(self, name: str) -> np.ndarray:
        """Shortcut for ``table.column(name).values``."""
        return self.column(name).values

    def encode_rows(self, rows: Sequence[Mapping[str, object]]) -> dict[str, np.ndarray]:
        """Storage-domain arrays, one per column, of ``{column: user value}`` rows.

        Each column converts all its values at once through its own encoding
        (:meth:`~repro.storage.column.Column.to_storage_array`).  A row
        missing a column, or a value a column cannot store, raises
        :class:`SchemaError`, so a caller that encodes before it stores
        anything rejects the whole batch.
        """
        encoded: dict[str, np.ndarray] = {}
        for name, column in self._columns.items():
            try:
                values = [row[name] for row in rows]
            except KeyError:
                position = next(i for i, row in enumerate(rows) if name not in row)
                missing = [c for c in self._columns if c not in rows[position]]
                raise SchemaError(f"insert is missing values for columns {missing}") from None
            encoded[name] = column.to_storage_array(values)
        return encoded

    def matrix(self, names: Iterable[str] | None = None) -> np.ndarray:
        """Stack the requested columns into an ``(n_rows, n_dims)`` matrix.

        Columns may use different narrow storage dtypes; the stack promotes
        to their common integer dtype (value-preserving for every storage
        dtype combination).
        """
        selected = list(names) if names is not None else self.column_names
        return np.column_stack([self.column(name).values for name in selected])

    def bounds(self, name: str) -> tuple[int, int]:
        """Return ``(min, max)`` of the stored values in column ``name``."""
        column = self.column(name)
        return column.min(), column.max()

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of all column data."""
        return sum(column.size_bytes() for column in self._columns.values())

    def describe(self) -> dict:
        """Storage breakdown (footprint + per-column dtypes) for reports.

        ``bytes_per_value`` is the compression headline: an all-``int64``
        table sits at 8.0, so anything lower is the narrow-dtype win.
        """
        columns = [column.describe() for column in self._columns.values()]
        total = self.size_bytes()
        num_values = self._num_rows * len(self._columns)
        return {
            "name": self.name,
            "num_rows": self._num_rows,
            "num_columns": len(self._columns),
            "size_bytes": total,
            "bytes_per_value": round(total / num_values, 3) if num_values else None,
            "columns": columns,
        }

    # -- clustered reorganization ---------------------------------------------------

    def reorder(self, permutation: np.ndarray) -> None:
        """Physically reorder every column's rows by the same ``permutation``.

        ``permutation`` must be a permutation of ``range(num_rows)``.  Indexes
        call this once at build time to cluster the table by their layout.
        """
        permutation = np.asarray(permutation)
        if permutation.shape != (self._num_rows,):
            raise SchemaError(
                f"permutation has shape {permutation.shape}, expected ({self._num_rows},)"
            )
        if self._num_rows:
            seen = np.zeros(self._num_rows, dtype=bool)
            seen[permutation] = True
            if not seen.all():
                raise SchemaError("permutation is not a bijection over the row ids")
        for column in self._columns.values():
            column.reorder(permutation)

    def reorder_rows(self, rows: np.ndarray, start: int, stop: int) -> None:
        """Physically reorder only rows ``[start, stop)`` by the slice permutation.

        ``rows`` is relative to the slice (see
        :meth:`~repro.storage.column.Column.reorder_rows`) and must be a
        bijection over ``range(stop - start)``.  Local merges use this to
        re-sort a single region's row range in place instead of permuting the
        whole table.
        """
        rows = np.asarray(rows)
        if stop < start or start < 0 or stop > self._num_rows:
            raise SchemaError(
                f"row range [{start}, {stop}) is outside table "
                f"{self.name!r} with {self._num_rows} rows"
            )
        length = stop - start
        if rows.shape != (length,):
            raise SchemaError(
                f"slice permutation has shape {rows.shape}, expected ({length},)"
            )
        if length:
            seen = np.zeros(length, dtype=bool)
            seen[rows] = True
            if not seen.all():
                raise SchemaError(
                    "slice permutation is not a bijection over the row range"
                )
        for column in self._columns.values():
            column.reorder_rows(rows, start, stop)

    def sample_rows(self, count: int, rng: np.random.Generator) -> "Table":
        """Return a new table containing ``count`` rows sampled without replacement."""
        count = min(count, self._num_rows)
        chosen = np.sort(rng.choice(self._num_rows, size=count, replace=False))
        columns = [
            Column(
                column.name,
                column.values[chosen],
                dictionary=column.dictionary,
                scaler=column.scaler,
            )
            for column in self._columns.values()
        ]
        return Table(f"{self.name}_sample", columns)

    def subset(self, row_ids: np.ndarray, name: str | None = None) -> "Table":
        """Return a new table restricted to ``row_ids`` (logical selection).

        A contiguous ascending ``row_ids`` run becomes a zero-copy slice view
        that preserves each column's storage dtype and any memory-mapped
        backing (shard builds over a clustered shard dimension hit this path);
        anything else gathers copies and re-narrows per column.
        """
        row_ids = np.asarray(row_ids)
        contiguous = bool(
            row_ids.size
            and row_ids.ndim == 1
            and np.issubdtype(row_ids.dtype, np.integer)
            and int(row_ids[-1]) - int(row_ids[0]) == row_ids.size - 1
            and np.all(np.diff(row_ids) == 1)
        )
        if contiguous:
            start, stop = int(row_ids[0]), int(row_ids[-1]) + 1
            columns = [
                Column(
                    column.name,
                    column.slice(start, stop),
                    dictionary=column.dictionary,
                    scaler=column.scaler,
                    narrow=False,
                )
                for column in self._columns.values()
            ]
        else:
            columns = [
                Column(
                    column.name,
                    column.values[row_ids],
                    dictionary=column.dictionary,
                    scaler=column.scaler,
                )
                for column in self._columns.values()
            ]
        return Table(name or f"{self.name}_subset", columns)
