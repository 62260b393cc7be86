"""Seeded inputs for the serving benchmark.

A run's inputs come from two :class:`numpy.random.SeedSequence` trees:

* the *corpus* -- the taxi table and the workload the index is optimized
  for -- from the fixed :data:`CORPUS_SEED`, so every run serves the same
  data through the same optimized layout, like a benchmark dataset;
* the *traffic* -- the served query stream, the warm-up queries and (for
  the ingest workload) the insert batches -- from the ``--seed`` argument.

The same seed gives byte-identical inputs; :func:`fingerprint` hashes them
so the self-test can check exactly that.

Query bounds come from each column sorted once.  A filter covering the
quantile range ``[low_q, high_q]`` takes the sorted values at
``floor(q * (n - 1))`` -- the bound ``np.quantile(method="lower")`` gives,
without sorting the column again for every filter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import RangeSpec, make_taxi_dataset, taxi_templates
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table

CORPUS_SEED = 2020
NUM_TYPES = len(taxi_templates())


def _rngs(seed: int, names: tuple[str, ...]) -> dict[str, np.random.Generator]:
    """One independent generator per name; appending names keeps earlier streams."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


class SortedColumns:
    """Every column of a table sorted once, for quantile lookups."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self._sorted = {name: np.sort(values) for name, values in columns.items()}

    def at(self, dimension: str, quantiles: np.ndarray) -> np.ndarray:
        values = self._sorted[dimension]
        positions = np.floor(np.asarray(quantiles) * (len(values) - 1)).astype(np.int64)
        return values[positions]


def instantiate(columns: SortedColumns, type_id: int, count: int, rng: np.random.Generator) -> list[Query]:
    """``count`` fresh instances of taxi query type ``type_id``.

    Follows :func:`repro.datasets.generate_workload`'s placement rule (a
    filter centre drawn uniformly from the spec's quantile region, the range
    clipped to stay inside ``[0, 1]``), vectorized over the instances.
    """
    template = taxi_templates()[type_id]
    bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for dimension, spec in template.filters.items():
        centres = rng.uniform(*spec.centre_region, size=count)
        if isinstance(spec, RangeSpec):
            low_q = np.clip(centres - spec.selectivity / 2.0, 0.0, 1.0 - spec.selectivity)
            high_q = np.clip(low_q + spec.selectivity, 0.0, 1.0)
            low = columns.at(dimension, low_q)
            high = np.maximum(columns.at(dimension, high_q), low)
        else:
            low = high = columns.at(dimension, centres)
        bounds[dimension] = (low, high)
    return [
        Query.from_ranges(
            {dim: (int(low[i]), int(high[i])) for dim, (low, high) in bounds.items()},
            query_type=type_id,
        )
        for i in range(count)
    ]


def instantiate_types(columns: SortedColumns, type_ids: np.ndarray, rng: np.random.Generator) -> list[Query]:
    """One fresh query per entry of ``type_ids``, in that order."""
    type_ids = np.asarray(type_ids)
    queries: list = [None] * len(type_ids)
    for type_id in range(NUM_TYPES):
        positions = np.flatnonzero(type_ids == type_id)
        for position, query in zip(positions, instantiate(columns, type_id, len(positions), rng)):
            queries[position] = query
    return queries


def balanced_types(count: int, weights: dict[int, int], rng: np.random.Generator) -> np.ndarray:
    """``count`` type ids split by integer ``weights``, shuffled."""
    total = sum(weights.values())
    ids: list[int] = []
    for type_id, weight in weights.items():
        ids.extend([type_id] * (count * weight // total))
    ids.extend(list(weights)[: count - len(ids)])
    shuffled = np.asarray(ids, dtype=np.int64)
    rng.shuffle(shuffled)
    return shuffled


@dataclass
class Inputs:
    """Everything one run serves, generated before anything is timed.

    ``stream`` holds a distinct :class:`Query` object per stream position
    (repeated pool entries are equal but not identical), so per-request
    bookkeeping can key on object identity.  ``inserts`` maps a stream
    position to the columnar batch inserted just before that query.
    """

    table_columns: dict[str, np.ndarray]
    build_workload: Workload
    stream: list[Query]
    warmup: list[Query] = field(default_factory=list)
    inserts: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def fresh_table(self) -> Table:
        """A new table over copies of the corpus columns (builds reorder in place)."""
        return Table.from_arrays("taxi", {name: values.copy() for name, values in self.table_columns.items()})


def _taxi_columns(rows: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    table = make_taxi_dataset(rows, seed=rng)
    return {name: table.values(name).astype(np.int64) for name in table.column_names}


def _corpus(rows: int, build_per_type: int) -> tuple[dict[str, np.ndarray], SortedColumns, Workload]:
    """The taxi table, its sorted columns, and ``build_per_type`` queries of every type."""
    rngs = _rngs(CORPUS_SEED, ("table", "build"))
    table_columns = _taxi_columns(rows, rngs["table"])
    columns = SortedColumns(table_columns)
    type_ids = np.repeat(np.arange(NUM_TYPES), build_per_type)
    return table_columns, columns, Workload(instantiate_types(columns, type_ids, rngs["build"]), name="taxi_build")


def _traffic(seed: int) -> dict[str, np.random.Generator]:
    return _rngs(seed, ("stream", "types", "inserts", "warmup"))


def _warmup(columns: SortedColumns, count: int, rng: np.random.Generator) -> list[Query]:
    return instantiate_types(columns, rng.integers(0, NUM_TYPES, count), rng)


def skewed_inputs(seed: int, rows: int, build_per_type: int, stream_length: int, warmup: int) -> Inputs:
    """Fresh instances of the six types, each position's type drawn uniformly."""
    table_columns, columns, build = _corpus(rows, build_per_type)
    rngs = _traffic(seed)
    return Inputs(
        table_columns=table_columns,
        build_workload=build,
        stream=instantiate_types(columns, rngs["types"].integers(0, NUM_TYPES, stream_length), rngs["stream"]),
        warmup=_warmup(columns, warmup, rngs["warmup"]),
    )


def hot_inputs(
    seed: int,
    rows: int,
    build_per_type: int,
    stream_length: int,
    warmup: int,
    pool_size: int,
    zipf_exponent: float,
) -> Inputs:
    """A zipf-popular stream over a pool of ``pool_size`` distinct queries.

    Pool entry ``k`` is requested with probability proportional to
    ``(k + 1) ** -zipf_exponent``; pool entries are instances of uniformly
    drawn types, so popularity is independent of query type.
    """
    table_columns, columns, build = _corpus(rows, build_per_type)
    rngs = _traffic(seed)
    pool = instantiate_types(columns, rngs["types"].integers(0, NUM_TYPES, pool_size), rngs["stream"])
    popularity = np.arange(1, pool_size + 1, dtype=np.float64) ** -zipf_exponent
    picks = rngs["stream"].choice(pool_size, size=stream_length, p=popularity / popularity.sum())
    stream = [
        Query(pool[i].predicates, pool[i].aggregate, pool[i].aggregate_column, pool[i].query_type) for i in picks
    ]
    return Inputs(
        table_columns=table_columns,
        build_workload=build,
        stream=stream,
        warmup=_warmup(columns, warmup, rngs["warmup"]),
    )


def drift_inputs(
    seed: int,
    rows: int,
    build_per_type: int,
    stream_length: int,
    shifted_weights: dict[int, int],
    insert_every: int,
    insert_rows: int,
) -> Inputs:
    """Two stationary phases with one mix change at mid-stream, plus inserts.

    The first half serves the six types in equal shares (the mix the index
    was optimized for); the second half serves ``shifted_weights``.  Before
    every ``insert_every``-th query, ``insert_rows`` trips picked up after
    every existing trip are inserted; later batches carry later pick-up
    times, like a live feed.
    """
    table_columns, columns, build = _corpus(rows, build_per_type)
    rngs = _traffic(seed)
    half = stream_length // 2
    type_ids = np.concatenate(
        [
            balanced_types(half, {type_id: 1 for type_id in range(NUM_TYPES)}, rngs["types"]),
            balanced_types(stream_length - half, shifted_weights, rngs["types"]),
        ]
    )
    positions = list(range(insert_every, stream_length, insert_every))
    fresh = _taxi_columns(insert_rows * len(positions), rngs["inserts"])
    duration = fresh["dropoff_time"] - fresh["pickup_time"]
    offsets = np.sort(rngs["inserts"].integers(0, 30 * 24 * 3600, len(duration)))
    fresh["pickup_time"] = int(table_columns["pickup_time"].max()) + 1 + offsets
    fresh["dropoff_time"] = fresh["pickup_time"] + duration
    inserts = {
        position: {name: values[k * insert_rows : (k + 1) * insert_rows] for name, values in fresh.items()}
        for k, position in enumerate(positions)
    }
    return Inputs(
        table_columns=table_columns,
        build_workload=build,
        stream=instantiate_types(columns, type_ids, rngs["stream"]),
        inserts=inserts,
    )


def rows_of(batch: dict[str, np.ndarray]) -> list[dict[str, int]]:
    """A columnar insert batch as the row mappings ``insert_many`` takes."""
    names = list(batch)
    return [dict(zip(names, values)) for values in zip(*(batch[name].tolist() for name in names))]


def fingerprint(inputs: Inputs) -> str:
    """SHA-256 over every generated value, in a fixed order."""
    digest = hashlib.sha256()
    for name in sorted(inputs.table_columns):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(inputs.table_columns[name]).tobytes())
    streams = {"build": list(inputs.build_workload), "stream": inputs.stream, "warmup": inputs.warmup}
    for label, queries in streams.items():
        digest.update(label.encode())
        for query in queries:
            digest.update(repr(query).encode())
    for position in sorted(inputs.inserts):
        digest.update(str(position).encode())
        for name in sorted(inputs.inserts[position]):
            digest.update(np.ascontiguousarray(inputs.inserts[position][name]).tobytes())
    return digest.hexdigest()
