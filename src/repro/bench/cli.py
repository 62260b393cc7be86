"""Command-line entry point for the benchmark subsystem::

    python -m repro.bench.cli run benchmarks/configs/fig7_overall.json
    python -m repro.bench.cli validate benchmarks/configs
    python -m repro.bench.cli smoke --configs benchmarks/configs --reports reports/

``run`` executes one config and prints its schema-versioned JSON report; a
report with violations exits non-zero.  A scenario config runs through
:class:`~repro.bench.runner.ScenarioRunner`; a figure config regenerates one
paper table or figure through its experiment in :data:`EXPERIMENTS`, prints
the plain-text table, and reports the experiment's paper-shape violations.
``validate`` type-checks every config in a directory without running
anything.  ``smoke`` is the CI entry point: it runs every smoke-tagged config
in a directory, writes one report file per config, and fails if any config
fails its gates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable

from repro.bench import experiments as exp
from repro.bench import extensions as ext
from repro.common.errors import ConfigError

#: Experiment name (a figure config's ``experiment``) -> experiment function.
EXPERIMENTS: dict[str, Callable[..., exp.ExperimentResult]] = {
    "table3": exp.experiment_table3,
    "table4": exp.experiment_table4,
    "fig7": exp.experiment_overall,
    "fig9a": exp.experiment_adaptability,
    "fig9b": exp.experiment_creation_time,
    "fig10": exp.experiment_dimensions,
    "fig11a": exp.experiment_dataset_size,
    "fig11b": exp.experiment_selectivity,
    "fig12a": exp.experiment_components,
    "fig12b": exp.experiment_optimizers,
    "ext-baselines": ext.experiment_extended_baselines,
    "ext-outliers": ext.experiment_outlier_mappings,
    "ext-incremental": ext.experiment_incremental_reopt,
    "ext-cost-weights": ext.experiment_cost_weights,
    "ext-region-budget": ext.experiment_region_budget,
}


def _json_value(value):
    """``json.dumps`` fallback: a dataclass becomes an object, anything else
    its ``str``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return str(value)


def _run_figure(config) -> dict:
    """Run a figure config's experiment driver; the plain-text table goes to
    stdout and the returned report carries it, its data, and its violations."""
    result = EXPERIMENTS[config.experiment](**config.params)
    print(result)
    data = json.loads(json.dumps(result.data, default=_json_value))
    return {
        "schema_version": 1,
        "kind": "figure",
        "name": config.name,
        "experiment": config.experiment,
        "result": {"name": result.name, "report": result.report, "data": data},
        "violations": result.violations,
        "ok": not result.violations,
    }


def _run_config(config) -> tuple[dict, list[str]]:
    """Execute one parsed config; returns (report, gate failures)."""
    from repro.bench.runner import run_scenario
    from repro.bench.scenario import FigureConfig, ScenarioConfig

    if isinstance(config, ScenarioConfig):
        report = run_scenario(config)
    elif isinstance(config, FigureConfig):
        report = _run_figure(config)
    else:
        raise ConfigError(f"cannot run config of type {type(config).__name__}")
    return report, list(report["violations"])


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


_COMMANDS = {"run": _cmd_run, "validate": _cmd_validate, "smoke": _cmd_smoke}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in _COMMANDS:
        print(f"usage: python -m repro.bench.cli {{{','.join(_COMMANDS)}}} ...", file=sys.stderr)
        return 2
    return _COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
