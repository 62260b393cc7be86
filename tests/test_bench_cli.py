"""Tests for the benchmark CLI (python -m repro.bench.cli)."""

import json
from pathlib import Path

from repro.bench.cli import EXPERIMENTS, main
from repro.bench.experiments import ExperimentResult

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "benchmarks" / "configs"


def _figure(tmp_path, experiment, **params) -> str:
    path = tmp_path / f"{experiment}.json"
    raw = {"kind": "figure", "name": f"cli-{experiment}", "experiment": experiment, "params": params}
    path.write_text(json.dumps(raw))
    return str(path)


class TestRunExperiment:
    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        _figure(tmp_path, "nope")
        assert main(["validate", str(tmp_path)]) == 1
        assert "unknown experiment 'nope'" in capsys.readouterr().err

    def test_table3_runs_at_tiny_scale(self):
        result = EXPERIMENTS["table3"](num_rows=2_000, queries_per_type=3)
        assert "dataset" in result.report
        assert result.violations == []

    def test_registry_covers_every_table_and_figure(self):
        paper_artifacts = {
            "table3",
            "table4",
            "fig7",
            "fig9a",
            "fig9b",
            "fig10",
            "fig11a",
            "fig11b",
            "fig12a",
            "fig12b",
        }
        assert paper_artifacts <= set(EXPERIMENTS)
        # Anything beyond the paper's tables/figures must be clearly marked as
        # a supplementary extension experiment.
        assert all(
            name.startswith("ext-") for name in set(EXPERIMENTS) - paper_artifacts
        )


def _tiny_scenario(name="cli-tiny", **overrides):
    raw = {
        "kind": "scenario",
        "name": name,
        "smoke": True,
        "seed": 5,
        "dataset": {"source": "correlated_xyz", "num_rows": 2_000},
        "workload": {"num_templates": 6, "num_queries": 32},
        "indexes": [{"kind": "kdtree"}],
    }
    raw.update(overrides)
    return raw


class TestValidateSubcommand:
    def test_shipped_configs_all_validate(self, capsys):
        assert main(["validate", str(REPO_CONFIGS)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == len(list(REPO_CONFIGS.glob("*.json")))

    def test_broken_config_fails_validation(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(json.dumps(_tiny_scenario()))
        (tmp_path / "broken.json").write_text('{"kind": "scenario"')
        assert main(["validate", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "INVALID broken.json" in captured.err
        assert "ok good.json" in captured.out


class TestRunSubcommand:
    def test_run_scenario_writes_report(self, tmp_path, capsys):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(_tiny_scenario()))
        output = tmp_path / "report.json"
        assert main(["run", str(config), "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["schema_version"] == 1
        assert report["name"] == "cli-tiny"
        assert report["ok"] is True
        # The report is also printed to stdout for interactive use.
        assert '"schema_version": 1' in capsys.readouterr().out

    def test_run_exits_nonzero_on_violation(self, tmp_path, capsys):
        config = tmp_path / "floor.json"
        raw = _tiny_scenario(thresholds={"min_queries_per_second": 1e12})
        config.write_text(json.dumps(raw))
        assert main(["run", str(config)]) == 1
        assert "FAILURE:" in capsys.readouterr().err

    def test_run_figure_config(self, tmp_path, capsys):
        config = _figure(tmp_path, "table3", num_rows=2_000, queries_per_type=3)
        output = tmp_path / "report.json"
        assert main(["run", config, "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["kind"] == "figure"
        assert report["ok"] is True
        assert "Table 3" in capsys.readouterr().out

    def test_figure_report_carries_numbers(self, tmp_path):
        output = tmp_path / "report.json"
        main(["run", _figure(tmp_path, "fig9b", num_rows=2_000, queries_per_type=3), "--output", str(output)])
        build = json.loads(output.read_text())["result"]["data"]["tsunami"]
        assert isinstance(build["optimize_seconds"], float)

    def test_figure_violation_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def broken(num_rows):
            return ExperimentResult("broken", "-", {}, ["stocks: tsunami serves 0.70x flood's queries/s"])

        monkeypatch.setitem(EXPERIMENTS, "fig7", broken)
        assert main(["run", _figure(tmp_path, "fig7", num_rows=10)]) == 1
        assert "FAILURE: stocks: tsunami serves 0.70x" in capsys.readouterr().err


class TestSmokeSubcommand:
    def test_matrix_runs_smoke_configs_and_writes_reports(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "a.json").write_text(json.dumps(_tiny_scenario(name="smoke-a")))
        (configs / "b.json").write_text(
            json.dumps(_tiny_scenario(name="full-only", smoke=False))
        )
        reports = tmp_path / "reports"
        assert (
            main(
                ["smoke", "--configs", str(configs), "--reports", str(reports)]
            )
            == 0
        )
        assert (reports / "smoke-a.json").exists()
        assert not (reports / "full-only.json").exists()
        err = capsys.readouterr().err
        assert "PASS a.json" in err
        assert "smoke matrix: 1/1 configs passed" in err

    def test_matrix_fails_on_gate_violation(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        raw = _tiny_scenario(
            name="smoke-bad", thresholds={"min_queries_per_second": 1e12}
        )
        (configs / "bad.json").write_text(json.dumps(raw))
        assert main(["smoke", "--configs", str(configs)]) == 1
        err = capsys.readouterr().err
        assert "FAIL bad.json" in err
        assert "smoke matrix: 0/1 configs passed" in err
