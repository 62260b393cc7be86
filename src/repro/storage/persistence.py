"""Saving and loading tables and built indexes (§8, "Persistence").

The paper's index is purely in-memory, but §8 notes that its techniques
"could be incorporated into a multi-dimensional index for data resident on
disk or SSD."  The first prerequisite for that is a durable representation of
the clustered table and the optimized index structure, which this module
provides:

* :func:`save_table` / :func:`load_table` write a
  :class:`~repro.storage.table.Table` as one raw ``.npy`` file per column
  (under ``columns/``) plus a JSON manifest describing each column's storage
  dtype and encoding (dictionary values or fixed-point scale), so the table
  round-trips exactly — narrow dtypes included — along with the physical row
  order a clustered index imposed.  Raw ``.npy`` files can be opened with
  ``mmap_mode="r"``: :func:`load_index` does so by default, so N shard
  workers (or any number of loaded snapshots of the same table) share pages
  instead of heap copies.
* :func:`save_index` / :func:`load_index` snapshot a *built* index.  The
  optimized structure (Grid Tree, Augmented Grids, baselines' trees) is
  pickled; the table it was clustered over is stored with
  :func:`save_table` and re-attached on load, so the snapshot does not keep
  two copies of the data and loading restores a fully queryable index without
  re-optimizing or re-sorting anything.
* Updatable and sharded indexes snapshot structurally rather than as one
  pickle: a :class:`~repro.core.delta.DeltaBufferedIndex` stores its wrapped
  index under ``main/`` plus the delta buffer's columns, so pending inserts
  round-trip exactly; a :class:`~repro.core.sharding.ShardedIndex` stores
  each shard under ``shard_NN/`` (recursively — updatable shards keep their
  buffers) plus the partition manifest.  The index factory both wrappers
  carry is pickled when possible (module-level callables, classes,
  ``functools.partial``); an unpicklable factory (a lambda) is replaced on
  load by one that rebuilds a fresh instance of the wrapped index's class
  with its recorded config.

Objects that implement the serving contract but none of these layouts raise
a typed :class:`~repro.common.errors.IndexBuildError` instead of failing with
an ``AttributeError`` mid-write.

:func:`save_index` is crash-safe: the whole snapshot tree is staged into a
temporary sibling directory and swapped into place with directory renames
only after every file is written, so a crash mid-write (exercised by the
``persistence.save`` fault-injection site) never corrupts or removes an
existing snapshot at the destination.

Snapshots are trusted artifacts: like any pickle-based format they must only
be loaded from directories this process (or an equally trusted one) wrote.
"""

from __future__ import annotations

import json
import pickle
import shutil
from pathlib import Path

import numpy as np

from repro.baselines.base import ClusteredIndex
from repro.common import faults
from repro.common.errors import IndexBuildError, SchemaError
from repro.storage.column import Column, StorageMeta
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.scaling import FixedPointScaler
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

#: Manifest format version, bumped on any incompatible layout change.
#: Version 2: per-column raw ``.npy`` files (mmap-shareable) with the storage
#: dtype recorded in the manifest, replacing the v1 ``columns.npz`` archive.
FORMAT_VERSION = 2

_TABLE_MANIFEST = "table.json"
_TABLE_COLUMNS_DIR = "columns"
_INDEX_MANIFEST = "index.json"
_INDEX_PICKLE = "index.pkl"
_DELTA_MANIFEST = "delta.json"
_DELTA_MAIN_DIR = "main"
_BUFFER_VALUES = "buffer.npz"
_SHARDED_MANIFEST = "sharded.json"
_FACTORY_PICKLE = "factory.pkl"
_WORKLOAD_PICKLE = "workload.pkl"


# -- tables ---------------------------------------------------------------------------


def save_table(table: Table, directory: str | Path) -> Path:
    """Write ``table`` (values, encodings, physical row order) to ``directory``.

    The directory is created if needed.  Returns the directory path.
    """
    path = Path(directory)
    columns_dir = path / _TABLE_COLUMNS_DIR
    columns_dir.mkdir(parents=True, exist_ok=True)

    columns = []
    for position, name in enumerate(table.column_names):
        column = table.column(name)
        filename = f"col_{position:03d}.npy"
        np.save(columns_dir / filename, np.asarray(column.values))
        entry: dict = {
            "name": name,
            "kind": "int",
            "file": filename,
            "dtype": column.dtype.name,
            # Bounds let the loader rebuild StorageMeta without scanning the
            # values (keeps memory-mapped loads from touching any pages).
            "min": column.min() if len(column) else None,
            "max": column.max() if len(column) else None,
        }
        if column.dictionary is not None:
            entry["kind"] = "dictionary"
            entry["values"] = column.dictionary.values
        elif column.scaler is not None:
            entry["kind"] = "scaled"
            entry["decimals"] = column.scaler.decimals
        columns.append(entry)
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": table.name,
        "num_rows": table.num_rows,
        "columns": columns,
    }
    with open(path / _TABLE_MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    return path


def load_table(directory: str | Path, *, mmap_mode: str | None = None) -> Table:
    """Load a table previously written by :func:`save_table`.

    ``mmap_mode="r"`` opens each column file as a read-only ``np.memmap``
    instead of reading it into the heap; the manifest's recorded dtype and
    bounds are attached as :class:`~repro.storage.column.StorageMeta`, so the
    load touches no data pages.
    """
    path = Path(directory)
    manifest_path = path / _TABLE_MANIFEST
    if not manifest_path.exists():
        raise SchemaError(f"no table manifest found in {path}")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported table snapshot version {manifest.get('format_version')!r}"
        )

    columns = []
    for entry in manifest["columns"]:
        name = entry["name"]
        values_path = path / _TABLE_COLUMNS_DIR / entry["file"]
        if not values_path.exists():
            raise SchemaError(f"column {name!r} listed in manifest but missing from values")
        values = np.load(values_path, mmap_mode=mmap_mode)
        meta = StorageMeta(
            dtype=np.dtype(entry["dtype"]),
            min_value=entry.get("min"),
            max_value=entry.get("max"),
        )
        if entry["kind"] == "dictionary":
            dictionary = DictionaryEncoder.from_ordered_values(entry["values"])
            columns.append(Column(name, values, dictionary=dictionary, meta=meta))
        elif entry["kind"] == "scaled":
            scaler = FixedPointScaler(decimals=int(entry["decimals"]))
            columns.append(Column(name, values, scaler=scaler, meta=meta))
        else:
            columns.append(Column(name, values, meta=meta))
    table = Table(manifest["name"], columns)
    if table.num_rows != manifest["num_rows"]:
        raise SchemaError(
            f"snapshot row count mismatch: manifest says {manifest['num_rows']}, "
            f"values contain {table.num_rows}"
        )
    return table


# -- indexes ---------------------------------------------------------------------------


def _write_index_manifest(path: Path, index, extra: dict | None = None) -> None:
    """Write the top-level ``index.json`` every snapshot kind shares."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "index_name": index.name,
        "index_class": type(index).__qualname__,
        "index_size_bytes": index.index_size_bytes(),
        "num_rows": index.table.num_rows,
    }
    manifest.update(extra or {})
    with open(path / _INDEX_MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)


def _save_factory(factory, path: Path) -> bool:
    """Pickle the index factory next to the snapshot when possible.

    Lambdas and other unpicklable callables are silently skipped; the loader
    falls back to rebuilding fresh instances of the wrapped index's class.
    """
    try:
        payload = pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    (path / _FACTORY_PICKLE).write_bytes(payload)
    return True


def _load_factory(path: Path):
    """The pickled index factory, or ``None`` when it was not persistable."""
    factory_path = path / _FACTORY_PICKLE
    if not factory_path.exists():
        return None
    with open(factory_path, "rb") as handle:
        return pickle.load(handle)


def _fallback_factory(wrapped):
    """A best-effort factory for snapshots whose original factory was a lambda.

    Rebuilds fresh instances of the wrapped index's class, reusing its
    ``config`` when it carries one (:class:`TsunamiIndex` does); classes with
    required constructor arguments and no config cannot be reconstructed this
    way and will fail at the next merge-triggered rebuild instead.
    """
    cls = type(wrapped)
    config = getattr(wrapped, "config", None)
    if config is not None:
        return lambda: cls(config)
    return cls


def _read_manifest(path: Path, filename: str) -> dict:
    with open(path / filename, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported index snapshot version {manifest.get('format_version')!r}"
        )
    return manifest


def _save_delta_index(index, path: Path) -> Path:
    """Snapshot an updatable index: wrapped index under ``main/`` plus buffer."""
    path.mkdir(parents=True, exist_ok=True)
    _save_index_into(index.base_index, path / _DELTA_MAIN_DIR)
    pending = index.buffer.table
    arrays = {name: np.asarray(pending.values(name)) for name in pending.column_names}
    np.savez_compressed(path / _BUFFER_VALUES, **arrays)
    _save_factory(index._index_factory, path)
    if index.workload is not None:
        # Merges rebuild the main index for this workload; losing it across a
        # snapshot would silently degrade post-merge layouts to unoptimized.
        with open(path / _WORKLOAD_PICKLE, "wb") as handle:
            pickle.dump(index.workload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "delta",
        "merge_threshold": index.merge_threshold,
        "merge_strategy": index.merge_strategy,
        "pending_rows": index.num_pending,
    }
    with open(path / _DELTA_MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    _write_index_manifest(path, index, {"kind": "delta", "num_rows": index.num_rows})
    return path


def _load_delta_index(path: Path, mmap_mode: str | None):
    from repro.core.delta import DeltaBuffer, DeltaBufferedIndex

    manifest = _read_manifest(path, _DELTA_MANIFEST)
    wrapped = load_index(path / _DELTA_MAIN_DIR, mmap_mode=mmap_mode)
    factory = _load_factory(path) or _fallback_factory(wrapped)
    index = DeltaBufferedIndex(
        factory,
        merge_threshold=int(manifest["merge_threshold"]),
        # Older snapshots predate the merge-strategy knob; they were written
        # by the global-rebuild implementation, so that is what they resume.
        merge_strategy=str(manifest.get("merge_strategy", "rebuild")),
    )
    index._index = wrapped
    workload_path = path / _WORKLOAD_PICKLE
    if workload_path.exists():
        with open(workload_path, "rb") as handle:
            index.workload = pickle.load(handle)
    buffer = DeltaBuffer(wrapped.table.column_names)
    with np.load(path / _BUFFER_VALUES) as archive:
        arrays = {name: np.array(archive[name]) for name in archive.files}
    if arrays and next(iter(arrays.values())).shape[0] > 0:
        buffer.append_many(arrays)
    index._buffer = buffer
    if index.num_pending != int(manifest["pending_rows"]):
        raise SchemaError(
            f"snapshot pending-row mismatch: manifest says "
            f"{manifest['pending_rows']}, buffer contains {index.num_pending}"
        )
    return index


def _shard_dirname(position: int) -> str:
    return f"shard_{position:02d}"


def _save_sharded_index(index, path: Path) -> Path:
    """Snapshot a sharded index: one subdirectory per shard plus the manifest."""
    path.mkdir(parents=True, exist_ok=True)
    shards = index.shards
    for position, shard in enumerate(shards):
        _save_index_into(shard, path / _shard_dirname(position))
    _save_factory(index._index_factory, path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded",
        "num_shards": len(shards),
        "shard_dimension": index.dimension,
        "boundaries": index.boundaries,
        "parallelism": index.parallelism,
        "table_name": index.table.name,
        "shard_dirs": [_shard_dirname(position) for position in range(len(shards))],
    }
    with open(path / _SHARDED_MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    _write_index_manifest(
        path, index, {"kind": "sharded", "num_rows": index.num_rows}
    )
    return path


def _load_sharded_index(path: Path, mmap_mode: str | None):
    from repro.core.sharding import ShardedIndex

    manifest = _read_manifest(path, _SHARDED_MANIFEST)
    shards = [
        load_index(path / subdir, mmap_mode=mmap_mode)
        for subdir in manifest["shard_dirs"]
    ]
    if not shards:
        raise IndexBuildError(f"sharded snapshot in {path} contains no shards")
    factory = _load_factory(path) or _fallback_factory(shards[0])
    return ShardedIndex._from_snapshot(
        factory,
        shards,
        dimension=manifest["shard_dimension"],
        boundaries=manifest["boundaries"],
        parallelism=int(manifest["parallelism"]),
        table_name=manifest["table_name"],
    )


def _save_index_into(index, path: Path) -> Path:
    """Write an index snapshot directly into ``path`` (no staging).

    This is the recursive workhorse behind :func:`save_index`: nested
    snapshots (delta ``main/``, sharded ``shard_NN/``) write straight into
    their subdirectory because the whole tree lives inside the staging
    directory the public entry point swaps into place atomically.
    """
    from repro.core.delta import DeltaBufferedIndex
    from repro.core.sharding import ShardedIndex

    if not isinstance(index, (DeltaBufferedIndex, ShardedIndex, ClusteredIndex)):
        raise IndexBuildError(
            f"{type(index).__name__} does not support snapshotting; expected a "
            "ClusteredIndex, DeltaBufferedIndex, or ShardedIndex"
        )
    if not index.is_built:
        raise IndexBuildError("only a built index can be saved")
    if isinstance(index, DeltaBufferedIndex):
        return _save_delta_index(index, path)
    if isinstance(index, ShardedIndex):
        return _save_sharded_index(index, path)
    path.mkdir(parents=True, exist_ok=True)
    save_table(index.table, path)

    # Detach the table and executor so the pickle holds only the index
    # structure; they are restored immediately afterwards and on load.
    table, executor = index._table, index._executor
    try:
        index._table, index._executor = None, None
        with open(path / _INDEX_PICKLE, "wb") as handle:
            pickle.dump(index, handle, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        index._table, index._executor = table, executor

    # Mid-write fault-injection site: fires after the data files but before
    # the manifest, the worst moment a crash could hit.
    faults.trigger("persistence.save", key=path.name)
    _write_index_manifest(path, index)
    return path


def save_index(index, directory: str | Path) -> Path:
    """Snapshot a built index (structure plus its clustered table) to ``directory``.

    Plain :class:`ClusteredIndex` instances are pickled next to their table;
    :class:`~repro.core.delta.DeltaBufferedIndex` and
    :class:`~repro.core.sharding.ShardedIndex` snapshot structurally (see the
    module docstring), so pending inserts and per-shard layouts round-trip.
    Anything else raises :class:`IndexBuildError`.

    The write is crash-safe: the snapshot is staged into a temporary sibling
    directory and atomically renamed over ``directory`` only once complete.
    A crash (or injected ``persistence.save`` fault) mid-write leaves any
    previous snapshot at ``directory`` untouched and loadable; the orphaned
    staging directory is cleaned up by the next successful save.
    """
    path = Path(directory)
    staging = path.with_name(path.name + ".saving")
    if staging.exists():
        shutil.rmtree(staging)
    try:
        _save_index_into(index, staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if path.exists():
        retired = path.with_name(path.name + ".old")
        if retired.exists():
            shutil.rmtree(retired)
        path.rename(retired)
        staging.rename(path)
        shutil.rmtree(retired)
    else:
        staging.rename(path)
    return path


def load_index(directory: str | Path, *, mmap_mode: str | None = "r"):
    """Load an index snapshot written by :func:`save_index`, ready to query.

    Dispatches on the snapshot layout: sharded and delta snapshots are
    reassembled recursively; plain snapshots unpickle the index structure and
    re-attach the stored table.

    Column data is memory-mapped read-only by default (``mmap_mode="r"``), so
    concurrent loaders of the same snapshot — shard workers in particular —
    share the OS page cache instead of materializing private copies.  Pass
    ``mmap_mode=None`` to read the columns into the heap.
    """
    path = Path(directory)
    if (path / _SHARDED_MANIFEST).exists():
        return _load_sharded_index(path, mmap_mode)
    if (path / _DELTA_MANIFEST).exists():
        return _load_delta_index(path, mmap_mode)
    pickle_path = path / _INDEX_PICKLE
    if not pickle_path.exists():
        raise IndexBuildError(f"no index snapshot found in {path}")
    table = load_table(path, mmap_mode=mmap_mode)
    with open(pickle_path, "rb") as handle:
        index = pickle.load(handle)
    if not isinstance(index, ClusteredIndex):
        raise IndexBuildError(
            f"snapshot in {path} does not contain a ClusteredIndex "
            f"(got {type(index).__name__})"
        )
    index._table = table
    index._executor = ScanExecutor(table)
    return index


def snapshot_info(directory: str | Path) -> dict:
    """Read a snapshot's manifests without loading the data or the index."""
    path = Path(directory)
    info: dict = {}
    table_manifest = path / _TABLE_MANIFEST
    if table_manifest.exists():
        with open(table_manifest, encoding="utf-8") as handle:
            info["table"] = json.load(handle)
    index_manifest = path / _INDEX_MANIFEST
    if index_manifest.exists():
        with open(index_manifest, encoding="utf-8") as handle:
            info["index"] = json.load(handle)
    if not info:
        raise SchemaError(f"{path} does not contain a snapshot")
    return info
