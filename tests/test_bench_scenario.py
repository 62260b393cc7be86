"""Tests for the config-driven scenario harness (PR 8).

Covers the three layers of ``repro.bench``'s scenario subsystem:

* :mod:`repro.bench.scenario` — the declarative config schema: parsing,
  strict validation, round-tripping, and the shipped ``benchmarks/configs/``
  directory.
* :mod:`repro.bench.workloads` — axis materialization: seed threading (the
  whole scenario derives from ``ScenarioConfig.seed``), template roles,
  drift schedules, write schedules, and the categorical column.
* :mod:`repro.bench.runner` — end-to-end scenario runs with the full-scan
  oracle, including the ≥100k-row categorical differential across the plain,
  delta-buffered, and sharded serving paths, threshold gating, and report
  schema validation.
"""

import statistics
from pathlib import Path

import numpy as np
import pytest

from repro.bench.cli import EXPERIMENTS
from repro.bench.runner import ScenarioRunner, _Serving, run_scenario, validate_report
from repro.bench.scenario import (
    FigureConfig,
    ScenarioConfig,
    load_config,
    parse_config,
    validate_directory,
)
from repro.bench.workloads import build_fault_plan, build_scenario_data
from repro.common.errors import ConfigError
from repro.core.delta import DeltaBufferedIndex

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "benchmarks" / "configs"


def scenario_raw(**overrides) -> dict:
    raw = {
        "kind": "scenario",
        "name": "unit",
        "seed": 42,
        "dataset": {"source": "correlated_xyz", "num_rows": 4_000},
        "workload": {"num_templates": 8, "num_queries": 64},
        "indexes": [{"kind": "kdtree"}],
    }
    raw.update(overrides)
    return raw


class TestConfigSchema:
    def test_round_trip(self):
        config = parse_config(scenario_raw())
        assert isinstance(config, ScenarioConfig)
        again = parse_config(config.to_dict())
        assert again == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(scenario_raw(surprise=1))

    def test_unknown_nested_key_rejected(self):
        raw = scenario_raw()
        raw["workload"]["typo_knob"] = 3
        with pytest.raises(ConfigError, match="typo_knob"):
            parse_config(raw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(scenario_raw(kind="mystery"))

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(scenario_raw(indexes=[{"kind": "btree"}]))

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(scenario_raw(schema_version=99))

    def test_writes_require_updatable_variant(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree"}])
        raw["workload"]["writes"] = {"write_fraction": 0.1}
        with pytest.raises(ConfigError, match="write"):
            parse_config(raw)

    def test_writes_accept_delta_variant(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.1}
        config = parse_config(raw)
        assert config.workload.writes is not None

    def test_faults_require_all_sharded_and_no_writes(self):
        raw = scenario_raw(
            faults={"error_probability": 0.1},
            indexes=[{"kind": "kdtree"}],
        )
        with pytest.raises(ConfigError, match="shard"):
            parse_config(raw)
        sharded = scenario_raw(
            faults={"error_probability": 0.1},
            indexes=[{"kind": "kdtree", "variant": "sharded", "updatable_shards": True}],
        )
        sharded["workload"]["writes"] = {"write_fraction": 0.1}
        with pytest.raises(ConfigError, match="writes"):
            parse_config(sharded)
        del sharded["workload"]["writes"]
        config = parse_config(sharded)
        assert config.faults is not None

    def test_duplicate_index_labels_rejected(self):
        with pytest.raises(ConfigError, match="label"):
            parse_config(scenario_raw(indexes=[{"kind": "kdtree"}, {"kind": "kdtree"}]))

    def test_dimension_sweep(self):
        raw = scenario_raw(
            dataset={"source": "uniform", "num_rows": 1_000, "num_dimensions": [3, 5]}
        )
        config = parse_config(raw)
        assert config.dataset.dimension_sweep() == (3, 5)

    def test_row_sweep_hotspot_and_batch_size_round_trip(self):
        raw = scenario_raw(
            dataset={"source": "correlated_xyz", "num_rows": [1_000, 2_000]},
            indexes=[{"kind": "tsunami", "variant": "delta", "batch_size": 8}],
        )
        raw["workload"]["placement"] = "localized"
        raw["workload"]["writes"] = {"write_fraction": 0.2, "hotspot": [100, 900]}
        config = parse_config(raw)
        assert config.dataset.row_sweep() == (1_000, 2_000)
        assert config.workload.writes.hotspot == (100, 900)
        assert config.indexes[0].batch_size == 8
        assert parse_config(config.to_dict()) == config

    def test_served_variant_takes_no_batch_size(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "served", "batch_size": 8}])
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(raw)

    def test_xz_placement_and_hotspot_need_correlated_xyz(self):
        raw = scenario_raw(dataset={"source": "uniform", "num_rows": 1_000})
        raw["workload"]["placement"] = "narrow"
        with pytest.raises(ConfigError, match="placement"):
            parse_config(raw)
        raw = scenario_raw(
            dataset={"source": "uniform", "num_rows": 1_000},
            indexes=[{"kind": "kdtree", "variant": "delta"}],
        )
        raw["workload"]["writes"] = {"write_fraction": 0.1, "hotspot": [0, 10]}
        with pytest.raises(ConfigError, match="hotspot"):
            parse_config(raw)

    def test_gates_need_their_axes(self):
        with pytest.raises(ConfigError, match="faults"):
            parse_config(scenario_raw(thresholds={"min_recovery_ratio": 0.5}))
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.1}
        raw["thresholds"] = {"max_update_rate_degradation": 2.0}
        with pytest.raises(ConfigError, match="num_rows sweep"):
            parse_config(raw)

    def test_figure_rejects_unknown_experiment(self):
        raw = {"kind": "figure", "name": "f", "experiment": "fig99"}
        with pytest.raises(ConfigError, match="fig99"):
            parse_config(raw)

    def test_figure_rejects_params_the_experiment_does_not_take(self):
        raw = {"kind": "figure", "name": "f", "experiment": "table3", "params": {"num_row": 2_000}}
        with pytest.raises(ConfigError, match="num_row"):
            parse_config(raw)

    def test_load_config_reports_bad_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)


class TestShippedConfigs:
    def test_every_shipped_config_is_valid(self):
        configs = validate_directory(CONFIG_DIR)
        assert len(configs) >= 15
        kinds = {type(config).__name__ for _, config in configs}
        assert kinds == {"ScenarioConfig", "FigureConfig"}

    def test_tracker_configs_cover_all_five_bench_outputs(self):
        """Every gate of the five retired ``BENCH_*.json`` outputs is a smoke scenario.

        The tracker configs that wrote those files are gone; each gate moved,
        with its bound, into a scenario the smoke matrix runs.  The planner
        speed gate of ``BENCH_throughput.json`` is the one exception: it is
        ``test_planner_vectorized.py::TestPlanningSpeed``.
        """
        scenarios = [
            config
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, ScenarioConfig) and config.smoke
        ]

        def speedup_gates(of_variant, over_variant, over_batch_size):
            found = []
            for s in scenarios:
                t = s.thresholds
                by_name = {ix.name: ix for ix in s.indexes}
                if t.speedup_of is None or t.min_speedup != 1.0:
                    continue
                of, over = by_name[t.speedup_of], by_name[t.speedup_over]
                if (of.variant, over.variant, over.batch_size) == (
                    of_variant, over_variant, over_batch_size
                ):
                    found.append(s)
            return found

        int64_bytes_per_value = 8.0
        covered = {
            # Narrow table scans and stores no more than its int64 twin.
            "BENCH_throughput.json": any(
                s.thresholds.max_bytes_per_value is not None
                and s.thresholds.max_bytes_per_value <= int64_bytes_per_value
                and s.thresholds.max_table_bytes_per_value is not None
                and s.thresholds.max_table_bytes_per_value <= int64_bytes_per_value
                for s in scenarios
            ),
            # Batched vs per-query delta serving; local-merge insert scaling.
            "BENCH_updates.json": bool(speedup_gates("delta", "delta", 1))
            and any(s.thresholds.max_update_rate_degradation == 2.0 for s in scenarios),
            # 8-way fan-out vs one index.
            "BENCH_shards.json": bool(speedup_gates("sharded", "plain", 256)),
            # Front-end vs serialized serving.
            "BENCH_serving.json": bool(speedup_gates("served", "plain", 1)),
            "BENCH_faults.json": any(s.thresholds.min_recovery_ratio == 0.6 for s in scenarios),
        }
        assert all(covered.values()), covered

    def test_scenario_axes_are_all_covered(self):
        scenarios = [
            config
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, ScenarioConfig)
        ]
        assert any(s.workload.writes is not None for s in scenarios)
        assert any(s.workload.point_lookup_fraction > 0 for s in scenarios)
        assert any(s.workload.categorical_fraction > 0 for s in scenarios)
        assert any(len(s.dataset.dimension_sweep()) > 1 for s in scenarios)
        schedules = {s.workload.drift.schedule for s in scenarios}
        assert {"step_shift", "rotating_hotspot"} <= schedules
        # Every new axis runs across at least three distinct baselines.
        kinds = {ix.kind for s in scenarios for ix in s.indexes}
        assert {"flood", "kdtree", "rtree", "zorder", "gridfile", "octree"} <= kinds

    def test_figure_configs_map_paper_experiments(self):
        """Every experiment has a shipped, valid figure config."""
        figures = {
            config.experiment
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, FigureConfig)
        }
        assert figures == set(EXPERIMENTS)


class TestSeedThreading:
    """One ``seed`` drives dataset, templates, stream, writes, and faults."""

    def _config(self, seed=42):
        raw = scenario_raw(
            seed=seed,
            indexes=[
                {"kind": "kdtree", "variant": "sharded", "num_shards": 2}
            ],
            faults={"error_probability": 0.2},
        )
        return parse_config(raw)

    def test_same_seed_reproduces_everything(self):
        config = self._config()
        a = build_scenario_data(config, 3)
        b = build_scenario_data(config, 3)
        assert a.stream == b.stream
        assert list(a.build_workload) == list(b.build_workload)
        assert a.fault_seed == b.fault_seed
        for name in a.table.column_names:
            assert (a.table.values(name) == b.table.values(name)).all()
        plan_a, plan_b = build_fault_plan(config, a), build_fault_plan(config, b)
        assert plan_a is not None and plan_b is not None
        # Both plans are seeded from the same derived fault seed, so their
        # injection decisions replay identically.
        assert plan_a._rng.random() == plan_b._rng.random()

    def test_same_seed_reproduces_write_batches(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.2, "rows_per_write": 16}
        config = parse_config(raw)
        a = build_scenario_data(config, 3)
        b = build_scenario_data(config, 3)
        assert [w.position for w in a.writes] == [w.position for w in b.writes]
        assert a.writes and a.writes[0].rows == b.writes[0].rows

    def test_different_seed_changes_the_stream(self):
        a = build_scenario_data(self._config(seed=1), 3)
        b = build_scenario_data(self._config(seed=2), 3)
        assert a.stream != b.stream
        assert a.fault_seed != b.fault_seed


class TestWorkloadAxes:
    def test_point_lookup_fraction_yields_equality_templates(self):
        raw = scenario_raw()
        raw["workload"]["point_lookup_fraction"] = 1.0
        data = build_scenario_data(parse_config(raw), 3)
        for query in data.build_workload:
            for low, high in query.filters().values():
                assert low == high

    def test_categorical_axis_adds_dictionary_predicates(self):
        raw = scenario_raw(
            dataset={
                "source": "correlated_xyz",
                "num_rows": 4_000,
                "categorical": {"dimension": "cat", "cardinality": 8},
            }
        )
        raw["workload"]["categorical_fraction"] = 1.0
        data = build_scenario_data(parse_config(raw), 3)
        assert "cat" in data.table.column_names
        assert data.table.column("cat").dictionary is not None
        hybrid = [q for q in data.build_workload if "cat" in q.filters()]
        assert hybrid, "no hybrid categorical templates generated"
        for query in hybrid:
            low, high = query.filters()["cat"]
            assert low == high  # dictionary predicates are equalities
            assert len(query.filters()) > 1  # hybrid: ranges + category

    def test_step_shift_changes_template_pool_between_phases(self):
        raw = scenario_raw()
        raw["workload"]["drift"] = {"schedule": "step_shift", "phases": 2}
        raw["workload"]["num_queries"] = 200
        data = build_scenario_data(parse_config(raw), 3)
        first = set(data.stream[:100])
        second = set(data.stream[100:])
        assert first.isdisjoint(second), "phases must draw from shifted pools"

    def test_write_schedule_interleaves_by_fraction(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["num_queries"] = 100
        raw["workload"]["writes"] = {"write_fraction": 0.25, "rows_per_write": 8}
        data = build_scenario_data(parse_config(raw), 3)
        # 25% writes -> one write event every ~3 queries, bounded by stream.
        assert len(data.writes) >= 20
        assert all(len(w.rows) == 8 for w in data.writes)
        assert all(0 < w.position <= 100 for w in data.writes)

    @pytest.mark.parametrize(
        "placement, x_low_max, width, z_high",
        [
            ("narrow", 90_000, (500, 5_000), (500, 4_000)),
            ("localized", 94_000, (1_000, 5_000), (1_000, 4_500)),
        ],
    )
    def test_xz_placements_draw_x_windows_with_z_prefixes(
        self, placement, x_low_max, width, z_high
    ):
        raw = scenario_raw(dataset={"source": "correlated_xyz", "num_rows": 1_000, "domain": 100_000})
        raw["workload"]["placement"] = placement
        data = build_scenario_data(parse_config(raw), 3)
        assert len(data.build_workload) == 8
        assert set(data.stream) <= set(data.build_workload)
        for query in data.build_workload:
            filters = query.filters()
            assert set(filters) == {"x", "z"}
            (x_low, x_high), (z_low, z_top) = filters["x"], filters["z"]
            assert 0 <= x_low < x_low_max
            assert width[0] <= x_high - x_low < width[1]
            assert z_low == 0 and z_high[0] <= z_top < z_high[1]

    def test_xz_placements_seed_table_and_traffic_directly(self):
        """Table from default_rng(seed); pool, then zipf stream, from default_rng(seed + 1)."""
        raw = scenario_raw(seed=33, dataset={"source": "correlated_xyz", "num_rows": 500})
        raw["workload"]["placement"] = "localized"
        data = build_scenario_data(parse_config(raw), 3)
        rng = np.random.default_rng(33)
        x = rng.integers(0, 100_000, 500)
        assert (data.table.values("x") == x).all()
        assert (data.table.values("y") == x * 3 + rng.integers(-500, 501, 500)).all()
        assert (data.table.values("z") == rng.integers(0, 5_000, 500)).all()
        rng = np.random.default_rng(34)
        for query in data.build_workload:
            x_low = int(rng.integers(0, 94_000))
            x_high = x_low + int(rng.integers(1_000, 5_000))
            z_high = int(rng.integers(1_000, 4_500))
            assert query.filters() == {"x": (x_low, x_high), "z": (0, z_high)}
        templates = list(data.build_workload)
        draws = rng.zipf(1.2, size=64) - 1
        assert data.stream == [templates[int(d) % 8] for d in draws]

    def test_hotspot_writes_follow_the_data_law(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.25, "rows_per_write": 50, "hotspot": [88_000, 94_000]}
        data = build_scenario_data(parse_config(raw), 3)
        rows = [row for event in data.writes for row in event.rows]
        assert len(rows) == 50 * len(data.writes) > 0
        for row in rows:
            assert 88_000 <= row["x"] < 94_000
            assert abs(row["y"] - 3 * row["x"]) <= 500
            assert 0 <= row["z"] < 5_000


class TestScenarioRunner:
    def test_report_passes_schema_validation(self):
        report = run_scenario(parse_config(scenario_raw()))
        assert validate_report(report) is report
        assert report["ok"] is True
        assert report["schema_version"] == 1

    def test_validate_report_rejects_missing_keys(self):
        report = run_scenario(parse_config(scenario_raw()))
        del report["results"][0]["indexes"][0]["queries_per_second"]
        with pytest.raises(ConfigError):
            validate_report(report)

    def test_oracle_catches_threshold_violation(self):
        raw = scenario_raw(
            thresholds={"min_queries_per_second": 1e12},
        )
        report = run_scenario(parse_config(raw))
        assert report["ok"] is False
        assert any("qps floor" in v for v in report["violations"])

    def test_wrong_answers_always_violate(self, monkeypatch):
        monkeypatch.setattr(ScenarioRunner, "_mismatches", staticmethod(lambda served, data: 1))
        report = run_scenario(parse_config(scenario_raw()))
        assert report["ok"] is False
        assert any("full-scan oracle" in v for v in report["violations"])

    def test_relative_speedup_threshold(self):
        raw = scenario_raw(
            indexes=[{"kind": "kdtree"}, {"kind": "octree"}],
            thresholds={
                "speedup_of": "kdtree",
                "speedup_over": "octree",
                "min_speedup": 1e9,
            },
        )
        report = run_scenario(parse_config(raw))
        assert report["ok"] is False
        assert any("x floor" in v and "kdtree" in v for v in report["violations"])

    def test_dimension_sweep_produces_one_cell_per_dimensionality(self):
        raw = scenario_raw(
            dataset={"source": "uniform", "num_rows": 2_000, "num_dimensions": [3, 4]},
            workload={"num_templates": 6, "num_queries": 32},
        )
        report = run_scenario(parse_config(raw))
        assert [cell["num_dimensions"] for cell in report["results"]] == [3, 4]
        assert report["ok"] is True

    def test_row_sweep_produces_one_cell_per_table_size(self):
        raw = scenario_raw(dataset={"source": "correlated_xyz", "num_rows": [1_000, 3_000]})
        report = run_scenario(parse_config(raw))
        assert [cell["num_rows"] for cell in report["results"]] == [1_000, 3_000]
        assert report["ok"] is True

    def test_batch_size_changes_batching_not_answers(self):
        raw = scenario_raw(
            indexes=[
                {"kind": "tsunami", "optimizer_iterations": 1, "label": "whole"},
                {"kind": "tsunami", "optimizer_iterations": 1, "label": "by-7", "batch_size": 7},
                {"kind": "tsunami", "optimizer_iterations": 1, "label": "single", "batch_size": 1},
            ]
        )
        report = run_scenario(parse_config(raw))
        assert report["ok"] is True, report["violations"]
        entries = report["results"][0]["indexes"]
        assert len({entry["avg_points_scanned"] for entry in entries}) == 1

    def test_read_only_serving_modes_share_one_build(self):
        raw = scenario_raw(
            indexes=[
                {"kind": "kdtree", "label": "per-query", "batch_size": 1},
                {"kind": "kdtree", "variant": "served", "label": "served"},
            ]
        )
        config = parse_config(raw)
        data = build_scenario_data(config, 3)
        builds: dict = {}
        stacks = [_Serving(index, data, False, builds) for index in config.indexes]
        try:
            assert stacks[0].index is stacks[1].index
            assert not isinstance(stacks[1].index, DeltaBufferedIndex)
        finally:
            for stack in stacks:
                stack.close()

    def test_served_variant_buffers_writes(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "served"}])
        raw["workload"]["writes"] = {"write_fraction": 0.2, "rows_per_write": 4}
        config = parse_config(raw)
        builds: dict = {}
        stack = _Serving(config.indexes[0], build_scenario_data(config, 3), False, builds)
        try:
            assert isinstance(stack.index, DeltaBufferedIndex)
            assert not builds
        finally:
            stack.close()

    def test_repetitions_report_median_timings(self):
        report = run_scenario(parse_config(scenario_raw(repetitions=3)))
        (entry,) = report["results"][0]["indexes"]
        samples = entry["repetitions"]
        assert samples["count"] == 3
        for key in ("build_seconds", "seconds_total", "queries_per_second", "rows_scanned_per_sec"):
            assert len(samples[key]) == 3
            assert entry[key] == sorted(samples[key])[1]

    def test_faulted_scenario_serves_three_oracle_checked_passes(self):
        raw = scenario_raw(
            repetitions=3,
            faults={"error_probability": 0.3},
            indexes=[{"kind": "kdtree", "variant": "sharded", "num_shards": 4, "batch_size": 16}],
            thresholds={"min_recovery_ratio": 1e9},
        )
        report = run_scenario(parse_config(raw))
        (entry,) = report["results"][0]["indexes"]
        phases = entry["fault_phases"]
        assert list(phases) == ["baseline", "faulted", "recovered"]
        assert entry["injected_faults"] > 0
        # Baseline and recovered answers match the oracle; only the faulted
        # pass may serve degraded partial answers.
        assert entry["correct"] is True
        assert phases["baseline"]["partial_serves"] == 0
        assert phases["recovered"]["shard_failures"] == 0
        assert entry["num_queries"] == 64  # no query dropped under faults
        assert entry["recovery_ratio"] > 0
        # Each phase reports its median over the repetitions.
        runs = entry["repetitions"]["fault_phases"]
        assert len(runs) == 3
        for phase, summary in phases.items():
            assert summary["queries_per_second"] == statistics.median(
                run[phase]["queries_per_second"] for run in runs
            )
        assert report["violations"]
        assert all("recovered to" in v for v in report["violations"])

    def test_update_rate_degradation_gates_local_merges_only(self):
        raw = scenario_raw(
            dataset={"source": "correlated_xyz", "num_rows": [1_000, 2_000]},
            indexes=[
                {"kind": "tsunami", "variant": "delta", "label": "local",
                 "optimizer_iterations": 1, "merge_threshold": 100},
                {"kind": "tsunami", "variant": "delta", "label": "rebuild",
                 "optimizer_iterations": 1, "merge_threshold": 100, "merge_strategy": "rebuild"},
            ],
            thresholds={"max_update_rate_degradation": 1e-9},
        )
        raw["workload"]["num_queries"] = 32
        raw["workload"]["writes"] = {"write_fraction": 0.25, "rows_per_write": 25}
        report = run_scenario(parse_config(raw))
        assert len(report["violations"]) == 1
        assert "local's sustained insert rate degrades" in report["violations"][0]


class TestCategoricalDifferential:
    """Hybrid categorical predicates vs the full-scan oracle at 100k rows.

    ``CategoricalReordering`` rewrites dictionary equalities over the
    reordered column; the scenario runner serves every query through the
    index under test *and* replays it through ``execute_full_scan`` on the
    same reordered table, so any rewrite or layout bug shows up as a value
    mismatch.  Exercises the plain, delta-buffered, and sharded paths.
    """

    @pytest.fixture(scope="class")
    def report(self):
        raw = {
            "kind": "scenario",
            "name": "categorical-differential",
            "seed": 1234,
            "dataset": {
                "source": "correlated_xyz",
                "num_rows": 100_000,
                "categorical": {"dimension": "category", "cardinality": 16},
            },
            "workload": {
                "num_templates": 12,
                "num_queries": 96,
                "categorical_fraction": 0.5,
                "reorder_categorical": True,
            },
            "indexes": [
                {"kind": "gridfile"},
                {"kind": "kdtree", "variant": "delta"},
                {"kind": "zorder", "variant": "sharded", "num_shards": 4},
            ],
        }
        return run_scenario(parse_config(raw))

    def test_all_paths_match_the_oracle(self, report):
        assert report["ok"] is True, report["violations"]
        (cell,) = report["results"]
        variants = {ix["variant"]: ix for ix in cell["indexes"]}
        assert set(variants) == {"plain", "delta", "sharded"}
        for ix in cell["indexes"]:
            assert ix["correct"] is True, ix
            assert ix["mismatches"] == 0

    def test_reordering_was_actually_applied(self, report):
        (cell,) = report["results"]
        summary = cell.get("categorical_reordering")
        assert summary, "categorical reordering summary missing from report"
