"""Build (table, workload, stream) triples from a :class:`ScenarioConfig`.

This is the single place benchmark data comes from: every axis of the
scenario matrix — dataset family, table size, dimensionality, zipf skew,
selectivity, template placement, point-lookup fraction, categorical hybrid
predicates, read/write mix (optionally a write hotspot), and named drift
schedules — is realized here, so no benchmark script carries its own
generation logic.

Everything is derived from the scenario's one ``seed`` through
:func:`repro.common.rng.spawn_rngs`: child 0 generates the dataset, child 1
places the template filters, child 2 orders the serving stream, child 3
draws the write batches, and child 4 seeds the fault plan.  The x/z
placements (``narrow``, ``localized``) seed their table and traffic
directly instead — see :func:`_cell_rngs`.  Two calls with the same config
therefore produce byte-identical query streams (pinned by
``tests/test_bench_scenario.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.scenario import ScenarioConfig
from repro.common.errors import ConfigError
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.rng import spawn_rngs
from repro.core.categorical import CategoricalReordering
from repro.datasets.synthetic import make_uniform_dataset
from repro.datasets.workload_gen import (
    EqualitySpec,
    QueryTemplate,
    RangeSpec,
    generate_workload,
)
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.table import Table


@dataclass
class WriteEvent:
    """An insert batch scheduled at ``position`` in the serving stream."""

    position: int
    rows: list[dict]


@dataclass
class ScenarioData:
    """Everything a runner needs to measure one (dimensionality, config) cell."""

    table: Table
    #: The template pool the index-under-test is optimized for.
    build_workload: Workload
    #: The serving stream (pool queries repeated per the skew/drift axes).
    stream: list[Query]
    #: Insert batches interleaved into the stream (empty when read-only).
    writes: list[WriteEvent] = field(default_factory=list)
    #: Seed for deterministic fault plans (derived from the scenario seed).
    fault_seed: int = 0
    #: Applied categorical reordering summary (None when the axis is off).
    categorical: dict | None = None


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def _correlated_xyz(
    x: np.ndarray, domain: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """The skewed x/y/z law given x: y tracks 3x, z is small and independent."""
    y = x * 3 + rng.integers(-500, 501, len(x))
    z = rng.integers(0, _z_domain(domain), len(x))
    return {"x": x, "y": y, "z": z}


def _z_domain(domain: int) -> int:
    return max(domain // 20, 2)


def _add_categorical_column(
    table: Table, config, rng: np.random.Generator
) -> Table:
    """Append a dictionary-encoded column with zipf-ish value frequencies."""
    values = [f"cat_{i:04d}" for i in range(config.cardinality)]
    weights = 1.0 / np.arange(1, config.cardinality + 1) ** config.skew
    weights /= weights.sum()
    codes = rng.choice(config.cardinality, size=table.num_rows, p=weights)
    dictionary = DictionaryEncoder.from_ordered_values(values)
    columns = [table.column(name) for name in table.column_names]
    columns.append(
        Column(config.dimension, codes.astype(np.int64), dictionary=dictionary)
    )
    return Table(table.name, columns)


def build_table(
    config: ScenarioConfig, num_dimensions: int, num_rows: int, rng: np.random.Generator
) -> Table:
    """Build the scenario's table for one point of the dimensionality x size sweep."""
    dataset = config.dataset
    if dataset.source == "correlated_xyz":
        x = rng.integers(0, dataset.domain, num_rows)
        table = Table.from_arrays("scenario_xyz", _correlated_xyz(x, dataset.domain, rng))
    elif dataset.source == "uniform":
        table = make_uniform_dataset(num_rows, num_dimensions, seed=rng)
    else:  # pragma: no cover - blocked by ScenarioConfig.validate
        raise ConfigError(f"unknown dataset source {dataset.source!r}")
    if dataset.categorical is not None:
        table = _add_categorical_column(table, dataset.categorical, rng)
    return table


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: Width (in quantile space) of each template's placement region — templates
#: concentrate on a slice of the data space, which is what makes the
#: workloads skewed.
_REGION_WIDTH = 0.25

#: x/z range placements over the correlated_xyz domain, as fractions of it:
#: (x_low ceiling, x width floor, x width ceiling, z_high floor, z_high ceiling).
_XZ_PLACEMENTS = {
    "narrow": (0.90, 0.005, 0.05, 0.1, 0.8),
    "localized": (0.94, 0.01, 0.05, 0.2, 0.9),
}


def _numeric_dimensions(table: Table, config: ScenarioConfig) -> list[str]:
    categorical = config.dataset.categorical
    exclude = categorical.dimension if categorical is not None else None
    return [name for name in table.column_names if name != exclude]


def _template_roles(config: ScenarioConfig) -> list[str]:
    """Assign each template a role per the axis fractions, deterministically."""
    workload = config.workload
    total = workload.num_templates
    num_point = int(round(workload.point_lookup_fraction * total))
    num_categorical = int(round(workload.categorical_fraction * total))
    num_point = min(num_point, total)
    num_categorical = min(num_categorical, total - num_point)
    remaining = {
        "range": total - num_point - num_categorical,
        "point": num_point,
        "categorical": num_categorical,
    }
    # Interleave the roles so a truncated pool still sees every axis.
    interleaved: list[str] = []
    while len(interleaved) < total:
        for role in ("range", "point", "categorical"):
            if remaining[role] > 0:
                interleaved.append(role)
                remaining[role] -= 1
    return interleaved


def build_templates(
    table: Table,
    config: ScenarioConfig,
    rng: np.random.Generator,
    phase: int = 0,
    phases: int = 1,
) -> list[QueryTemplate]:
    """One :class:`QueryTemplate` per pool slot, honouring every workload axis.

    ``phase`` shifts the placement regions for the ``step_shift`` drift
    schedule: phase ``p`` of ``n`` concentrates its templates on the ``p``-th
    slice of the quantile space, so successive phases move the hot region.
    """
    workload = config.workload
    numeric = _numeric_dimensions(table, config)
    dims_per_query = min(workload.dims_per_query, len(numeric))
    categorical = config.dataset.categorical
    templates = []
    for position, role in enumerate(_template_roles(config)):
        if phases > 1:
            base = (phase / phases) * (1.0 - _REGION_WIDTH)
            start = base + float(rng.uniform(0, _REGION_WIDTH / phases))
        else:
            start = float(rng.uniform(0.0, 1.0 - _REGION_WIDTH))
        region = (start, start + _REGION_WIDTH)
        chosen = [numeric[(position + j) % len(numeric)] for j in range(dims_per_query)]
        filters: dict = {}
        if role == "point":
            for dim in chosen:
                filters[dim] = EqualitySpec(centre_region=region)
        else:
            for dim in chosen:
                filters[dim] = RangeSpec(workload.selectivity, centre_region=region)
            if role == "categorical":
                assert categorical is not None  # enforced by config validation
                filters[categorical.dimension] = EqualitySpec(centre_region=region)
        templates.append(QueryTemplate(f"{role}_{phase}_{position}", filters, count=1))
    return templates


def _xz_templates(config: ScenarioConfig, rng: np.random.Generator) -> Workload:
    """Range templates on x plus a z prefix, placed per ``workload.placement``."""
    x_max, width_low, width_high, z_low, z_high = _XZ_PLACEMENTS[config.workload.placement]
    domain = config.dataset.domain
    z_domain = _z_domain(domain)
    templates = []
    for _ in range(config.workload.num_templates):
        x_low = int(rng.integers(0, round(x_max * domain)))
        width = int(rng.integers(round(width_low * domain), round(width_high * domain)))
        z_high_value = int(rng.integers(round(z_low * z_domain), round(z_high * z_domain)))
        templates.append(
            Query.from_ranges({"x": (x_low, x_low + width), "z": (0, z_high_value)})
        )
    return Workload(templates, name="pool_phase0")


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def _draw_stream_indices(
    num_queries: int,
    num_templates: int,
    zipf_theta: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    if zipf_theta is None:
        return rng.integers(0, num_templates, num_queries)
    return (rng.zipf(zipf_theta, size=num_queries) - 1) % num_templates


def _build_pools(
    table: Table, config: ScenarioConfig, template_rng: np.random.Generator
) -> list[Workload]:
    """One query pool per drift phase (a single pool when drift is off)."""
    if config.workload.placement != "quantile":
        return [_xz_templates(config, template_rng)]
    drift = config.workload.drift
    phases = drift.phases if drift.schedule == "step_shift" else 1
    pools = []
    for phase in range(phases):
        templates = build_templates(
            table, config, template_rng, phase=phase, phases=phases
        )
        pools.append(
            generate_workload(
                table, templates, seed=template_rng, name=f"pool_phase{phase}"
            )
        )
    return pools


def _build_stream(
    pools: list[Workload], config: ScenarioConfig, rng: np.random.Generator
) -> list[Query]:
    workload = config.workload
    drift = workload.drift
    if drift.schedule == "step_shift":
        # Each phase draws from its own (shifted) pool.
        stream: list[Query] = []
        per_phase = max(workload.num_queries // len(pools), 1)
        for phase, pool in enumerate(pools):
            count = (
                workload.num_queries - per_phase * (len(pools) - 1)
                if phase == len(pools) - 1
                else per_phase
            )
            queries = list(pool)
            indices = _draw_stream_indices(
                count, len(queries), workload.zipf_theta, rng
            )
            stream.extend(queries[int(i)] for i in indices)
        return stream[: workload.num_queries]
    queries = list(pools[0])
    indices = _draw_stream_indices(
        workload.num_queries, len(queries), workload.zipf_theta, rng
    )
    if drift.schedule == "rotating_hotspot":
        # Rotate which templates are zipf-hot in each phase: the pool is
        # unchanged but the popularity ranking shifts, which is drift the
        # detector should notice without any new query shapes.
        per_phase = max(workload.num_queries // drift.phases, 1)
        shift = max(len(queries) // drift.phases, 1)
        indices = np.array(
            [
                (int(index) + (position // per_phase) * shift) % len(queries)
                for position, index in enumerate(indices)
            ]
        )
    return [queries[int(i)] for i in indices]


# ---------------------------------------------------------------------------
# Writes
# ---------------------------------------------------------------------------


def _build_writes(
    table: Table, config: ScenarioConfig, rng: np.random.Generator
) -> list[WriteEvent]:
    writes = config.workload.writes
    if writes is None:
        return []
    count = writes.rows_per_write
    if writes.hotspot is not None:
        low, high = writes.hotspot

        def draw() -> dict[str, np.ndarray]:
            return _correlated_xyz(rng.integers(low, high, count), config.dataset.domain, rng)

    else:
        categorical = config.dataset.categorical
        bounds = {}
        for name in table.column_names:
            if categorical is not None and name == categorical.dimension:
                bounds[name] = (0, categorical.cardinality - 1)
            else:
                bounds[name] = table.bounds(name)

        def draw() -> dict[str, np.ndarray]:
            return {name: rng.integers(lo, hi + 1, count) for name, (lo, hi) in bounds.items()}

    # A write event after every `interval` queries makes write events a
    # `write_fraction` share of all operations.
    interval = max(int(round((1.0 - writes.write_fraction) / writes.write_fraction)), 1)
    return [
        WriteEvent(position=position, rows=_rows(draw()))
        for position in range(interval, config.workload.num_queries + 1, interval)
    ]


def _rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """Column arrays -> insert rows of plain ints."""
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*(columns[name].tolist() for name in names))]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _cell_rngs(config: ScenarioConfig) -> list[np.random.Generator]:
    """The (dataset, template, stream, write, fault) generators of one cell.

    The x/z placements draw the table from ``default_rng(seed)``, then the
    template pool and the zipf stream from one ``default_rng(seed + 1)``.
    That is the draw order the serving gates on these placements were first
    measured with, so a config naming the same seed serves the same table
    and stream.
    """
    rngs = spawn_rngs(config.seed, 5)
    if config.workload.placement != "quantile":
        traffic = np.random.default_rng(config.seed + 1)
        rngs[:3] = [np.random.default_rng(config.seed), traffic, traffic]
    return rngs


def build_scenario_data(
    config: ScenarioConfig, num_dimensions: int, num_rows: int | None = None
) -> ScenarioData:
    """Materialize one cell of the scenario matrix, fully seed-threaded.

    ``num_rows`` picks the point of the table-size sweep (default: its first).
    """
    dataset_rng, template_rng, stream_rng, write_rng, fault_rng = _cell_rngs(config)
    if num_rows is None:
        num_rows = config.dataset.row_sweep()[0]
    table = build_table(config, num_dimensions, num_rows, dataset_rng)
    pools = _build_pools(table, config, template_rng)

    categorical_summary = None
    if config.workload.reorder_categorical:
        assert config.dataset.categorical is not None
        dimension = config.dataset.categorical.dimension
        reordering = CategoricalReordering.fit(table, dimension, pools[0])
        table = reordering.apply_to_table(table)
        pools = [reordering.rewrite_workload(pool) for pool in pools]
        categorical_summary = reordering.describe()

    stream = _build_stream(pools, config, stream_rng)
    writes = _build_writes(table, config, write_rng)
    return ScenarioData(
        table=table,
        build_workload=pools[0],
        stream=stream,
        writes=writes,
        fault_seed=int(fault_rng.integers(0, 2**31 - 1)),
        categorical=categorical_summary,
    )


def build_fault_plan(config: ScenarioConfig, data: ScenarioData) -> FaultPlan | None:
    """The scenario's seeded fault plan (None when the faults section is absent)."""
    faults = config.faults
    if faults is None:
        return None
    specs = []
    if faults.error_probability > 0:
        specs.append(
            FaultSpec(
                site="shard.execute", kind="error", probability=faults.error_probability
            )
        )
    if faults.delay_probability > 0:
        specs.append(
            FaultSpec(
                site="shard.execute",
                kind="delay",
                probability=faults.delay_probability,
                delay_seconds=faults.delay_seconds,
            )
        )
    return FaultPlan(specs, seed=data.fault_seed)
