"""Declarative scenario configs: one JSON file per reproducible result.

Every benchmark in this repository — the paper figures, the serving perf
gates, and the survey-grade workload matrix — is described by a config file
in ``benchmarks/configs/`` and reproduced with one command::

    python -m repro.bench.cli run benchmarks/configs/<name>.json

A config is one of two kinds:

* ``"scenario"`` — the generic workload matrix: a dataset axis, a workload
  axis (read/write mix, point-lookup fraction, categorical hybrid
  predicates, selectivity, zipf skew, named drift schedules), and a list of
  indexes-under-test (any baseline or Tsunami, optionally wrapped as
  delta-buffered / sharded / lifecycle-managed / served through the
  concurrent front-end).  Run by
  :class:`~repro.bench.runner.ScenarioRunner`, which verifies every answer
  against the full-scan oracle and emits a schema-versioned report.
* ``"figure"`` — a paper table/figure regenerated through the experiment
  drivers in :mod:`repro.bench.experiments`.

Configs are validated eagerly and strictly: unknown keys, unknown index
kinds, and inconsistent axis combinations raise a typed
:class:`~repro.common.errors.ConfigError` *before* anything is built, so
``python -m repro.bench.cli validate benchmarks/configs`` can schema-check
the whole registry in milliseconds in CI.

All randomness in a scenario derives from the single ``seed`` field:
dataset generation, template placement, stream order, write batches, and
fault-plan schedules all use child generators spawned from it
(:func:`repro.common.rng.spawn_rngs`; the x/z placements seed their table
and traffic from it directly), so two runs of the same config see
byte-identical query streams.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.common.errors import ConfigError

#: Version stamped into every config and report this subsystem emits.
SCHEMA_VERSION = 1

#: Dataset sources the scenario kind understands.
DATASET_SOURCES = ("correlated_xyz", "uniform", "correlated", "registry")

#: Index kinds runnable under a scenario (the full baseline set + Tsunami).
INDEX_KINDS = (
    "tsunami",
    "flood",
    "kdtree",
    "rtree",
    "zorder",
    "gridfile",
    "octree",
    "singledim",
)

#: How an index-under-test is wrapped for serving.
INDEX_VARIANTS = ("plain", "delta", "sharded", "lifecycle", "served")

#: Named drift schedules (see repro.bench.workloads.drift_phases).
DRIFT_SCHEDULES = ("none", "step_shift", "rotating_hotspot")

#: Template placement styles (see repro.bench.workloads._build_pools).
PLACEMENTS = ("quantile", "narrow", "localized")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(section: str, mapping: Mapping, allowed: Sequence[str]) -> None:
    unknown = set(mapping) - set(allowed)
    _require(not unknown, f"{section}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class CategoricalDatasetConfig:
    """An extra dictionary-encoded string column added to a synthetic dataset."""

    dimension: str = "category"
    cardinality: int = 24
    #: Zipf-ish concentration of value frequencies; 0 = uniform.
    skew: float = 1.1

    def validate(self) -> None:
        _require(bool(self.dimension), "dataset.categorical.dimension must be non-empty")
        _require(
            2 <= self.cardinality <= 10_000,
            f"dataset.categorical.cardinality must be in [2, 10000], "
            f"got {self.cardinality}",
        )
        _require(self.skew >= 0, "dataset.categorical.skew must be >= 0")


@dataclass(frozen=True)
class DatasetConfig:
    """Which table the scenario builds, and at what scale."""

    source: str = "correlated_xyz"
    #: int, or a list for a table-size sweep.
    num_rows: int | tuple[int, ...] = 20_000
    #: int, or a list for a dimensionality sweep (synthetic sources only).
    num_dimensions: int | tuple[int, ...] = 3
    #: Storage domain of synthetic dimensions.
    domain: int = 100_000
    #: Registry dataset name (source == "registry" only).
    registry_name: str | None = None
    categorical: CategoricalDatasetConfig | None = None

    def validate(self) -> None:
        _require(
            self.source in DATASET_SOURCES,
            f"dataset.source must be one of {DATASET_SOURCES}, got {self.source!r}",
        )
        for count in self.row_sweep():
            _require(count >= 1, f"dataset.num_rows entries must be >= 1, got {count}")
        _require(self.domain >= 2, f"dataset.domain must be >= 2, got {self.domain}")
        for count in self.dimension_sweep():
            _require(
                count >= 2, f"dataset.num_dimensions entries must be >= 2, got {count}"
            )
        if self.source == "registry":
            _require(
                self.registry_name is not None,
                "dataset.registry_name is required when source is 'registry'",
            )
            _require(
                self.categorical is None,
                "dataset.categorical only applies to synthetic sources",
            )
        if self.source == "correlated_xyz":
            _require(
                self.dimension_sweep() == (3,),
                "dataset.num_dimensions must be 3 (x, y, z) for correlated_xyz",
            )
        if self.categorical is not None:
            self.categorical.validate()

    def dimension_sweep(self) -> tuple[int, ...]:
        """The dimensionality axis: one entry per table the scenario builds."""
        if isinstance(self.num_dimensions, int):
            return (self.num_dimensions,)
        return tuple(self.num_dimensions)

    def row_sweep(self) -> tuple[int, ...]:
        """The table-size axis: one entry per table the scenario builds."""
        if isinstance(self.num_rows, int):
            return (self.num_rows,)
        return tuple(self.num_rows)


@dataclass(frozen=True)
class WriteMixConfig:
    """The read/write mix axis: inserts interleaved into the query stream."""

    write_fraction: float = 0.1
    rows_per_write: int = 64
    #: ``[low, high)`` x window every inserted row falls in (a write hotspot);
    #: y and z follow the correlated_xyz law.  None draws rows uniformly
    #: within the table's bounds.
    hotspot: tuple[int, int] | None = None

    def validate(self) -> None:
        _require(
            0.0 < self.write_fraction < 1.0,
            f"workload.writes.write_fraction must be in (0, 1), "
            f"got {self.write_fraction}",
        )
        _require(
            self.rows_per_write >= 1,
            f"workload.writes.rows_per_write must be >= 1, got {self.rows_per_write}",
        )
        if self.hotspot is not None:
            _require(
                isinstance(self.hotspot, tuple)
                and len(self.hotspot) == 2
                and self.hotspot[0] < self.hotspot[1],
                f"workload.writes.hotspot must be [low, high) with low < high, "
                f"got {self.hotspot!r}",
            )


@dataclass(frozen=True)
class DriftConfig:
    """The drift-schedule axis: how the template pool moves over the stream."""

    schedule: str = "none"
    phases: int = 2

    def validate(self) -> None:
        _require(
            self.schedule in DRIFT_SCHEDULES,
            f"workload.drift.schedule must be one of {DRIFT_SCHEDULES}, "
            f"got {self.schedule!r}",
        )
        _require(
            self.phases >= 2 or self.schedule == "none",
            f"workload.drift.phases must be >= 2, got {self.phases}",
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """The workload axes of one scenario."""

    num_templates: int = 24
    num_queries: int = 512
    #: Zipf exponent of template repetition; None repeats templates uniformly.
    zipf_theta: float | None = 1.2
    #: Target per-dimension selectivity of range filters.
    selectivity: float = 0.05
    #: How many dimensions each range template filters.
    dims_per_query: int = 2
    #: Fraction of templates that are point lookups (equality on every dim).
    point_lookup_fraction: float = 0.0
    #: Fraction of templates carrying a categorical equality + numeric ranges.
    categorical_fraction: float = 0.0
    #: Apply workload-aware categorical reordering before building indexes.
    reorder_categorical: bool = False
    #: "quantile" places each template's filters on a quantile slice of the
    #: data; "narrow" and "localized" draw x/z range templates over the
    #: correlated_xyz domain (narrow: x windows 0.5-5% of the domain;
    #: localized: 1-5%, far narrower than a shard of a sharded index).
    #: The x/z styles ignore selectivity and dims_per_query.
    placement: str = "quantile"
    writes: WriteMixConfig | None = None
    drift: DriftConfig = field(default_factory=DriftConfig)

    def validate(self, dataset: DatasetConfig) -> None:
        _require(
            self.num_templates >= 1,
            f"workload.num_templates must be >= 1, got {self.num_templates}",
        )
        _require(
            self.num_queries >= 1,
            f"workload.num_queries must be >= 1, got {self.num_queries}",
        )
        _require(
            self.zipf_theta is None or self.zipf_theta > 1.0,
            f"workload.zipf_theta must be > 1 or null, got {self.zipf_theta}",
        )
        _require(
            0.0 < self.selectivity <= 1.0,
            f"workload.selectivity must be in (0, 1], got {self.selectivity}",
        )
        _require(
            self.dims_per_query >= 1,
            f"workload.dims_per_query must be >= 1, got {self.dims_per_query}",
        )
        for name, fraction in (
            ("point_lookup_fraction", self.point_lookup_fraction),
            ("categorical_fraction", self.categorical_fraction),
        ):
            _require(
                0.0 <= fraction <= 1.0, f"workload.{name} must be in [0, 1], got {fraction}"
            )
        _require(
            self.point_lookup_fraction + self.categorical_fraction <= 1.0,
            "workload.point_lookup_fraction + categorical_fraction must be <= 1",
        )
        if self.categorical_fraction > 0 or self.reorder_categorical:
            _require(
                dataset.categorical is not None,
                "workload.categorical_fraction/reorder_categorical require "
                "dataset.categorical",
            )
        if dataset.source == "registry":
            _require(
                self.point_lookup_fraction == 0 and self.categorical_fraction == 0,
                "point-lookup and categorical axes apply to synthetic sources only",
            )
        _require(
            self.placement in PLACEMENTS,
            f"workload.placement must be one of {PLACEMENTS}, got {self.placement!r}",
        )
        if self.placement != "quantile":
            _require(
                dataset.source == "correlated_xyz"
                and self.point_lookup_fraction == 0
                and self.categorical_fraction == 0
                and self.drift.schedule != "step_shift",
                f"workload.placement {self.placement!r} draws x/z range templates: "
                "it needs the correlated_xyz source, no point-lookup or "
                "categorical templates, and no step_shift drift",
            )
        if self.writes is not None:
            self.writes.validate()
            _require(
                self.writes.hotspot is None
                or (dataset.source == "correlated_xyz" and dataset.categorical is None),
                "workload.writes.hotspot draws x/y/z rows; it needs the "
                "correlated_xyz source without a categorical column",
            )
        self.drift.validate()


@dataclass(frozen=True)
class FaultsConfig:
    """Optional seeded fault injection at the shard-execution site."""

    error_probability: float = 0.0
    delay_probability: float = 0.0
    delay_seconds: float = 0.001

    def validate(self) -> None:
        for name, p in (
            ("error_probability", self.error_probability),
            ("delay_probability", self.delay_probability),
        ):
            _require(0.0 <= p < 1.0, f"faults.{name} must be in [0, 1), got {p}")
        _require(
            self.delay_seconds >= 0, f"faults.delay_seconds must be >= 0"
        )
        _require(
            self.error_probability > 0 or self.delay_probability > 0,
            "faults section present but both probabilities are zero",
        )


@dataclass(frozen=True)
class IndexConfig:
    """One index-under-test: a base kind plus a serving variant."""

    kind: str
    variant: str = "plain"
    label: str | None = None
    optimizer_iterations: int = 2
    page_size: int = 2048
    merge_threshold: int = 1_000_000
    #: How delta-buffered wrappers fold merges: "local" reorganizes only the
    #: touched Grid Tree regions, "rebuild" rebuilds the whole wrapped index.
    merge_strategy: str = "local"
    num_shards: int = 4
    parallelism: int = 0
    updatable_shards: bool = False
    cache_entries: int = 0
    #: Most queries one executor batch holds; 1 serves query by query
    #: through ``run``.  None batches each stream segment whole.  The served
    #: variant's front-end forms its own batches, so it takes none.
    batch_size: int | None = None

    def validate(self) -> None:
        _require(
            self.kind in INDEX_KINDS,
            f"index.kind must be one of {INDEX_KINDS}, got {self.kind!r}",
        )
        _require(
            self.variant in INDEX_VARIANTS,
            f"index.variant must be one of {INDEX_VARIANTS}, got {self.variant!r}",
        )
        _require(self.page_size >= 1, f"index.page_size must be >= 1")
        _require(self.merge_threshold >= 1, "index.merge_threshold must be >= 1")
        _require(
            self.merge_strategy in ("local", "rebuild"),
            f"index.merge_strategy must be 'local' or 'rebuild', "
            f"got {self.merge_strategy!r}",
        )
        _require(self.num_shards >= 1, "index.num_shards must be >= 1")
        _require(self.parallelism >= 0, "index.parallelism must be >= 0")
        _require(self.cache_entries >= 0, "index.cache_entries must be >= 0")
        _require(
            self.batch_size is None or self.batch_size >= 1,
            "index.batch_size must be >= 1",
        )
        _require(
            self.batch_size is None or self.variant != "served",
            "index.batch_size does not apply to the served variant",
        )

    @property
    def name(self) -> str:
        """Label used in reports (unique within one scenario's index list)."""
        if self.label:
            return self.label
        return self.kind if self.variant == "plain" else f"{self.kind}-{self.variant}"

    def accepts_writes(self) -> bool:
        """Whether this configuration can absorb inserts."""
        if self.variant in ("delta", "lifecycle"):
            return True
        if self.variant in ("sharded", "served") and self.updatable_shards:
            return True
        return self.variant == "served"


@dataclass(frozen=True)
class ThresholdsConfig:
    """Smoke gates evaluated by the runner; violations fail CI."""

    require_correct: bool = True
    min_queries_per_second: float | None = None
    #: Gate: results[speedup_over] must not be faster than results[speedup_of].
    speedup_of: str | None = None
    speedup_over: str | None = None
    min_speedup: float = 1.0
    #: Gate: bytes scanned per value read must stay at or below this ceiling
    #: (an all-int64 scan sits at exactly 8.0; 4.0 enforces a 2x dtype win).
    max_bytes_per_value: float | None = None
    #: Gate: table footprint in bytes per stored value (all-int64 is 8.0).
    max_table_bytes_per_value: float | None = None
    #: Gate: every write-accepting index's sustained insert rate
    #: (rows_inserted_per_second) must reach at least this fraction of the
    #: fastest writer's rate in the same cell.
    min_relative_update_rate: float | None = None
    #: Gate: across a num_rows sweep, every local-merge writer's sustained
    #: insert rate at the smallest table must stay below this multiple of its
    #: rate at the largest (rebuild merges are expected to degrade).
    max_update_rate_degradation: float | None = None
    #: Gate (faulted scenarios): throughput after the fault plan is lifted
    #: must reach this fraction of the fault-free baseline.
    min_recovery_ratio: float | None = None

    def validate(self, index_names: Sequence[str]) -> None:
        if self.speedup_of is not None or self.speedup_over is not None:
            _require(
                self.speedup_of in index_names and self.speedup_over in index_names,
                f"thresholds.speedup_of/speedup_over must name configured "
                f"indexes {list(index_names)}",
            )
            _require(self.min_speedup > 0, "thresholds.min_speedup must be > 0")
        if self.max_bytes_per_value is not None:
            _require(
                self.max_bytes_per_value > 0,
                "thresholds.max_bytes_per_value must be > 0",
            )
        if self.max_table_bytes_per_value is not None:
            _require(
                self.max_table_bytes_per_value > 0,
                "thresholds.max_table_bytes_per_value must be > 0",
            )
        if self.min_relative_update_rate is not None:
            _require(
                0.0 < self.min_relative_update_rate <= 1.0,
                "thresholds.min_relative_update_rate must be in (0, 1]",
            )
        if self.max_update_rate_degradation is not None:
            _require(
                self.max_update_rate_degradation > 0,
                "thresholds.max_update_rate_degradation must be > 0",
            )
        if self.min_recovery_ratio is not None:
            _require(
                self.min_recovery_ratio > 0, "thresholds.min_recovery_ratio must be > 0"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: dataset x workload x indexes-under-test."""

    name: str
    description: str = ""
    smoke: bool = False
    seed: int = 0
    repetitions: int = 1
    verify: bool = True
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    indexes: tuple[IndexConfig, ...] = ()
    faults: FaultsConfig | None = None
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)

    def validate(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        _require(self.repetitions >= 1, "repetitions must be >= 1")
        _require(len(self.indexes) >= 1, "a scenario needs at least one index")
        self.dataset.validate()
        self.workload.validate(self.dataset)
        names = [index.name for index in self.indexes]
        _require(
            len(set(names)) == len(names),
            f"index labels must be unique, got {names}",
        )
        for index in self.indexes:
            index.validate()
            if self.workload.writes is not None:
                _require(
                    index.accepts_writes(),
                    f"index {index.name!r} cannot absorb the read/write mix; "
                    "use variant delta/lifecycle/served or updatable shards",
                )
            if index.variant == "lifecycle" and self.repetitions != 1:
                raise ConfigError(
                    "lifecycle variants are stateful; repetitions must be 1"
                )
        if self.faults is not None:
            self.faults.validate()
            _require(
                all(index.variant == "sharded" for index in self.indexes),
                "fault injection requires every index to use the sharded variant",
            )
            _require(
                self.workload.writes is None,
                "faulted scenarios replay one read-only stream per phase; "
                "drop workload.writes",
            )
        _require(
            self.thresholds.min_recovery_ratio is None or self.faults is not None,
            "thresholds.min_recovery_ratio needs a faults section",
        )
        _require(
            self.thresholds.max_update_rate_degradation is None
            or (self.workload.writes is not None and len(self.dataset.row_sweep()) > 1),
            "thresholds.max_update_rate_degradation needs workload.writes and a "
            "dataset.num_rows sweep",
        )
        self.thresholds.validate(names)

    # -- (de)serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioConfig":
        """Parse and validate a raw JSON mapping (strict: unknown keys fail)."""
        _check_keys(
            "scenario",
            raw,
            [
                "schema_version",
                "kind",
                "name",
                "description",
                "smoke",
                "seed",
                "repetitions",
                "verify",
                "dataset",
                "workload",
                "indexes",
                "faults",
                "thresholds",
            ],
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        )
        kind = raw.get("kind", "scenario")
        _require(kind == "scenario", f"ScenarioConfig cannot parse kind {kind!r}")

        dataset_raw = dict(raw.get("dataset", {}))
        _check_keys(
            "dataset",
            dataset_raw,
            ["source", "num_rows", "num_dimensions", "domain", "registry_name", "categorical"],
        )
        categorical_raw = dataset_raw.pop("categorical", None)
        if categorical_raw is not None:
            _check_keys(
                "dataset.categorical", categorical_raw, ["dimension", "cardinality", "skew"]
            )
            dataset_raw["categorical"] = CategoricalDatasetConfig(**categorical_raw)
        for key in ("num_rows", "num_dimensions"):
            if isinstance(dataset_raw.get(key), list):
                dataset_raw[key] = tuple(dataset_raw[key])
        dataset = DatasetConfig(**dataset_raw)

        workload_raw = dict(raw.get("workload", {}))
        _check_keys(
            "workload",
            workload_raw,
            [
                "num_templates",
                "num_queries",
                "zipf_theta",
                "selectivity",
                "dims_per_query",
                "point_lookup_fraction",
                "categorical_fraction",
                "reorder_categorical",
                "placement",
                "writes",
                "drift",
            ],
        )
        writes_raw = workload_raw.pop("writes", None)
        if writes_raw is not None:
            writes_raw = dict(writes_raw)
            _check_keys(
                "workload.writes", writes_raw, ["write_fraction", "rows_per_write", "hotspot"]
            )
            if isinstance(writes_raw.get("hotspot"), list):
                writes_raw["hotspot"] = tuple(writes_raw["hotspot"])
            workload_raw["writes"] = WriteMixConfig(**writes_raw)
        drift_raw = workload_raw.pop("drift", None)
        if drift_raw is not None:
            _check_keys("workload.drift", drift_raw, ["schedule", "phases"])
            workload_raw["drift"] = DriftConfig(**drift_raw)
        workload = WorkloadConfig(**workload_raw)

        indexes = []
        for position, index_raw in enumerate(raw.get("indexes", [])):
            _check_keys(
                f"indexes[{position}]",
                index_raw,
                [
                    "kind",
                    "variant",
                    "label",
                    "optimizer_iterations",
                    "page_size",
                    "merge_threshold",
                    "merge_strategy",
                    "num_shards",
                    "parallelism",
                    "updatable_shards",
                    "cache_entries",
                    "batch_size",
                ],
            )
            indexes.append(IndexConfig(**index_raw))

        faults_raw = raw.get("faults")
        faults = None
        if faults_raw is not None:
            _check_keys(
                "faults",
                faults_raw,
                ["error_probability", "delay_probability", "delay_seconds"],
            )
            faults = FaultsConfig(**faults_raw)

        thresholds_raw = raw.get("thresholds")
        thresholds = ThresholdsConfig()
        if thresholds_raw is not None:
            _check_keys(
                "thresholds",
                thresholds_raw,
                [
                    "require_correct",
                    "min_queries_per_second",
                    "speedup_of",
                    "speedup_over",
                    "min_speedup",
                    "max_bytes_per_value",
                    "max_table_bytes_per_value",
                    "min_relative_update_rate",
                    "max_update_rate_degradation",
                    "min_recovery_ratio",
                ],
            )
            thresholds = ThresholdsConfig(**thresholds_raw)

        try:
            config = cls(
                name=raw.get("name", ""),
                description=raw.get("description", ""),
                smoke=bool(raw.get("smoke", False)),
                seed=int(raw.get("seed", 0)),
                repetitions=int(raw.get("repetitions", 1)),
                verify=bool(raw.get("verify", True)),
                dataset=dataset,
                workload=workload,
                indexes=tuple(indexes),
                faults=faults,
                thresholds=thresholds,
            )
        except TypeError as exc:  # wrong field type in a section constructor
            raise ConfigError(f"malformed scenario config: {exc}") from exc
        config.validate()
        return config

    def to_dict(self) -> dict:
        """The JSON form of this config (round-trips through from_dict)."""
        raw = asdict(self)
        raw["schema_version"] = SCHEMA_VERSION
        raw["kind"] = "scenario"
        raw["indexes"] = [
            {k: v for k, v in index.items() if v is not None}
            for index in raw["indexes"]
        ]
        for key in ("num_rows", "num_dimensions"):
            if isinstance(raw["dataset"][key], tuple):
                raw["dataset"][key] = list(raw["dataset"][key])
        writes = raw["workload"]["writes"]
        if writes is not None and writes["hotspot"] is not None:
            writes["hotspot"] = list(writes["hotspot"])
        return raw


# ---------------------------------------------------------------------------
# Config files: loading, discovery, and the figure kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureConfig:
    """A paper table/figure reproduced through repro.bench.experiments."""

    name: str
    experiment: str
    description: str = ""
    smoke: bool = False
    num_rows: int | None = None
    queries_per_type: int | None = None
    params: Mapping = field(default_factory=dict)

    def validate(self) -> None:
        _require(bool(self.name), "figure config name must be non-empty")
        _require(bool(self.experiment), "figure config needs an experiment name")
        # The experiment registry lives in repro.bench.cli; imported lazily to
        # avoid a cycle, and checked here so `validate` catches typos.
        from repro.bench.cli import EXPERIMENTS

        _require(
            self.experiment in EXPERIMENTS,
            f"unknown experiment {self.experiment!r}; "
            f"available: {sorted(EXPERIMENTS)}",
        )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "FigureConfig":
        _check_keys(
            "figure",
            raw,
            [
                "schema_version",
                "kind",
                "name",
                "experiment",
                "description",
                "smoke",
                "num_rows",
                "queries_per_type",
                "params",
            ],
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        )
        _require(raw.get("kind") == "figure", "FigureConfig requires kind 'figure'")
        config = cls(
            name=raw.get("name", ""),
            experiment=raw.get("experiment", ""),
            description=raw.get("description", ""),
            smoke=bool(raw.get("smoke", False)),
            num_rows=raw.get("num_rows"),
            queries_per_type=raw.get("queries_per_type"),
            params=dict(raw.get("params", {})),
        )
        config.validate()
        return config


AnyConfig = ScenarioConfig | FigureConfig

_PARSERS = {
    "scenario": ScenarioConfig.from_dict,
    "figure": FigureConfig.from_dict,
}


def parse_config(raw: Mapping, source: str = "<dict>") -> AnyConfig:
    """Parse one raw config mapping into its typed, validated form."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{source}: config must be a JSON object")
    kind = raw.get("kind", "scenario")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ConfigError(
            f"{source}: unknown config kind {kind!r}; "
            f"expected one of {sorted(_PARSERS)}"
        )
    try:
        return parser(raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str | Path) -> AnyConfig:
    """Load and validate one config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(raw, source=str(path))


def discover_configs(directory: str | Path) -> list[Path]:
    """Every ``*.json`` config file under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"config directory not found: {directory}")
    return sorted(directory.glob("*.json"))


def validate_directory(directory: str | Path) -> list[tuple[Path, AnyConfig]]:
    """Load and validate every config in ``directory`` (raises on the first bad one)."""
    return [(path, load_config(path)) for path in discover_configs(directory)]
