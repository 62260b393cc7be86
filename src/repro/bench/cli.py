"""Command-line entry point for the benchmark subsystem.

Two families of commands share this module.  The original experiment
regeneration interface::

    python -m repro.bench.cli --list
    python -m repro.bench.cli table3 table4
    python -m repro.bench.cli fig7 --rows 100000 --queries 50
    python -m repro.bench.cli all --rows 40000

and the config-driven scenario harness (PR 8)::

    python -m repro.bench.cli run benchmarks/configs/scenario_point_lookups.json
    python -m repro.bench.cli validate benchmarks/configs
    python -m repro.bench.cli smoke --configs benchmarks/configs --reports reports/

``run`` executes one config (scenario or figure) and prints its
schema-versioned JSON report; a report with violations exits non-zero.
``validate`` type-checks every config in a directory without running
anything.  ``smoke`` is the CI entry point: it runs every smoke-tagged config
in a directory, writes one report file per config, and fails if any config
fails its gates.

Each experiment prints the same plain-text table the corresponding benchmark
in ``benchmarks/`` asserts on, so the CLI is the quickest way to regenerate a
single figure without running pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.bench import experiments as exp
from repro.bench import extensions as ext
from repro.common.errors import ConfigError

#: Experiment name -> (driver, description).
EXPERIMENTS: dict[str, tuple[Callable[..., exp.ExperimentResult], str]] = {
    "table3": (exp.experiment_table3, "Table 3: dataset and query characteristics"),
    "table4": (exp.experiment_table4, "Table 4: index statistics after optimization"),
    "fig7": (exp.experiment_overall, "Fig. 7/8: overall throughput and index size"),
    "fig9a": (exp.experiment_adaptability, "Fig. 9a: adaptability to workload shift"),
    "fig9b": (exp.experiment_creation_time, "Fig. 9b: index creation time"),
    "fig10": (exp.experiment_dimensions, "Fig. 10: scaling with dimensionality"),
    "fig11a": (exp.experiment_dataset_size, "Fig. 11a: scaling with dataset size"),
    "fig11b": (exp.experiment_selectivity, "Fig. 11b: scaling with query selectivity"),
    "fig12a": (exp.experiment_components, "Fig. 12a: component drill-down"),
    "fig12b": (exp.experiment_optimizers, "Fig. 12b: optimization method comparison"),
    "ext-baselines": (
        ext.experiment_extended_baselines,
        "Supplementary: Grid File and R-tree join the Fig. 7 suite",
    ),
    "ext-outliers": (
        ext.experiment_outlier_mappings,
        "Supplementary (§8): plain vs outlier-buffered functional mappings",
    ),
    "ext-incremental": (
        ext.experiment_incremental_reopt,
        "Supplementary (§8): incremental vs full re-optimization",
    ),
}

#: Experiments that accept the standard (num_rows, queries_per_type) knobs.
_ROWS_KWARG = {
    "table3": "num_rows",
    "table4": "num_rows",
    "fig7": "num_rows",
    "fig9a": "num_rows",
    "fig9b": "num_rows",
    "fig10": "num_rows",
    "fig11b": "num_rows",
    "fig12a": "num_rows",
    "fig12b": "num_rows",
    "ext-baselines": "num_rows",
    "ext-outliers": "num_rows",
    "ext-incremental": "num_rows",
}

#: Experiments whose drivers do not take the ``queries_per_type`` knob.
_NO_QUERIES_KWARG = {"ext-outliers"}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate tables and figures from the Tsunami paper's evaluation.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--rows", type=int, default=None, help="rows per dataset")
    parser.add_argument(
        "--queries", type=int, default=None, help="queries per query type"
    )
    return parser


def run_experiment(name: str, rows: int | None, queries: int | None) -> exp.ExperimentResult:
    """Run a single experiment by name with the requested scale."""
    try:
        driver, _ = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None
    kwargs = {}
    if rows is not None and name in _ROWS_KWARG:
        kwargs[_ROWS_KWARG[name]] = rows
    if queries is not None and name not in _NO_QUERIES_KWARG:
        kwargs["queries_per_type"] = queries
    return driver(**kwargs)


# ---------------------------------------------------------------------------
# Config-driven subcommands (run / validate / smoke)
# ---------------------------------------------------------------------------

_SUBCOMMANDS = ("run", "validate", "smoke")


def _run_figure(config) -> dict:
    """Run a figure config's experiment driver; the plain-text table goes to
    stdout and the returned report carries it for the archive."""
    kwargs = dict(config.params)
    name = config.experiment
    if config.num_rows is not None and name in _ROWS_KWARG:
        kwargs[_ROWS_KWARG[name]] = config.num_rows
    if config.queries_per_type is not None and name not in _NO_QUERIES_KWARG:
        kwargs["queries_per_type"] = config.queries_per_type
    driver, _ = EXPERIMENTS[name]
    result = driver(**kwargs)
    print(result)
    return {
        "schema_version": 1,
        "kind": "figure",
        "name": config.name,
        "experiment": config.experiment,
        "result": {"name": result.name, "report": result.report, "data": result.data},
        "violations": [],
        "ok": True,
    }


def _run_config(config) -> tuple[dict, list[str]]:
    """Execute one parsed config; returns (report, gate failures)."""
    from repro.bench.runner import run_scenario
    from repro.bench.scenario import FigureConfig, ScenarioConfig

    if isinstance(config, ScenarioConfig):
        report = run_scenario(config)
        return report, list(report["violations"])
    if isinstance(config, FigureConfig):
        return _run_figure(config), []
    raise ConfigError(f"cannot run config of type {type(config).__name__}")


def _write_report(report: dict, output: Path) -> None:
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(f"wrote {output}", file=sys.stderr)


def _cmd_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench run", description="Run one benchmark config."
    )
    parser.add_argument("config", type=Path, help="path to a *.json config")
    parser.add_argument(
        "--output", type=Path, default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)

    from repro.bench.scenario import load_config

    config = load_config(args.config)
    report, failures = _run_config(config)
    print(json.dumps(report, indent=2, default=str))
    if args.output is not None:
        _write_report(report, args.output)
    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_validate(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench validate",
        description="Schema-check every config in a directory.",
    )
    parser.add_argument(
        "configs",
        type=Path,
        nargs="?",
        default=Path("benchmarks/configs"),
        help="config directory (default: benchmarks/configs)",
    )
    args = parser.parse_args(argv)

    from repro.bench.scenario import discover_configs, load_config

    failures = 0
    for path in discover_configs(args.configs):
        try:
            config = load_config(path)
        except ConfigError as exc:
            print(f"INVALID {path.name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        kind = type(config).__name__.removesuffix("Config").lower()
        print(f"ok {path.name:40s} kind={kind} name={config.name}")
    if failures:
        print(f"{failures} invalid config(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_smoke(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench smoke",
        description="Run every smoke-tagged config in a directory (the CI matrix).",
    )
    parser.add_argument(
        "--configs",
        type=Path,
        default=Path("benchmarks/configs"),
        help="config directory (default: benchmarks/configs)",
    )
    parser.add_argument(
        "--reports",
        type=Path,
        default=None,
        help="directory to write one <name>.json report per config",
    )
    args = parser.parse_args(argv)

    from repro.bench.scenario import load_config, discover_configs

    failed: list[str] = []
    ran = 0
    for path in discover_configs(args.configs):
        config = load_config(path)
        if not config.smoke:
            continue
        ran += 1
        print(f"=== {path.name} ===", file=sys.stderr)
        try:
            report, failures = _run_config(config)
        except Exception as exc:  # a crash must fail CI, not abort the matrix
            print(f"FAIL {path.name}: {exc!r}", file=sys.stderr)
            failed.append(path.name)
            continue
        if args.reports is not None:
            _write_report(report, args.reports / f"{config.name}.json")
        if failures:
            for failure in failures:
                print(f"FAIL {path.name}: {failure}", file=sys.stderr)
            failed.append(path.name)
        else:
            print(f"PASS {path.name}", file=sys.stderr)
    print(
        f"smoke matrix: {ran - len(failed)}/{ran} configs passed", file=sys.stderr
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        handler = {"run": _cmd_run, "validate": _cmd_validate, "smoke": _cmd_smoke}
        return handler[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    for name in names:
        result = run_experiment(name, args.rows, args.queries)
        print(result)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
