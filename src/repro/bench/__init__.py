"""Benchmarks: regenerate the paper's tables and figures, and run the
scenario matrix behind the perf gates.

* :mod:`repro.bench.runner` — :class:`ScenarioRunner`: drives every configured
  index through the serving stack and emits a schema-versioned report.  Its
  timed pass, full-scan oracle and work counters measure every index here.
* :mod:`repro.bench.experiments` — one driver per paper table/figure, each
  checking its result's paper shape into ``ExperimentResult.violations``.
* :mod:`repro.bench.extensions` — the same for the §8 extensions and
  design-choice ablations.
* :mod:`repro.bench.report` — plain-text table and series formatting.
* :mod:`repro.bench.scenario` — the declarative config schema behind
  ``benchmarks/configs/`` (scenario / figure kinds).
* :mod:`repro.bench.workloads` — materializes a scenario's dataset, template
  pools, serving stream, and write schedule from its seed.
* :mod:`repro.bench.cli` — ``python -m repro.bench.cli run | validate |
  smoke``: the one way to run a config, figure configs included.
"""

from repro.bench.report import format_table, format_series, relative_factors
from repro.bench.scenario import (
    DatasetConfig,
    FigureConfig,
    IndexConfig,
    ScenarioConfig,
    WorkloadConfig,
    load_config,
    parse_config,
    validate_directory,
)

__all__ = [
    "format_table",
    "format_series",
    "relative_factors",
    "DatasetConfig",
    "FigureConfig",
    "IndexConfig",
    "ScenarioConfig",
    "WorkloadConfig",
    "load_config",
    "parse_config",
    "validate_directory",
]
