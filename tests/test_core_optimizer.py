"""Tests for repro.core.optimizer (AGD, GD, AGD-NI, Black Box, heuristics)."""

import numpy as np
import pytest
from reference_evaluator import reference_features

from repro.common.errors import OptimizationError
from repro.core.augmented_grid import AugmentedGrid
from repro.core.optimizer import (
    MAX_EVALUATION_QUERIES,
    AdaptiveGradientDescent,
    BlackBoxOptimizer,
    ConfigurationEvaluator,
    GradientDescentOnly,
    adapt_partitions,
    initialize_partitions,
    initialize_skeleton,
)
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.integers(0, 100_000, n)
    y = x + rng.integers(-200, 201, n)  # tight correlation -> mapping candidate
    z = rng.integers(0, 1_000, n)  # independent
    w = rng.integers(0, 50, n)
    return Table.from_arrays("opt", {"x": x, "y": y, "z": z, "w": w})


@pytest.fixture(scope="module")
def workload(table: Table) -> Workload:
    rng = np.random.default_rng(1)
    queries = []
    for _ in range(30):
        low = int(rng.integers(0, 95_000))
        queries.append(Query.from_ranges({"x": (low, low + 2000), "z": (0, 300)}, query_type=0))
    for _ in range(30):
        low = int(rng.integers(0, 95_000))
        queries.append(Query.from_ranges({"y": (low, low + 1000)}, query_type=1))
    return Workload(queries)


class TestInitializeSkeleton:
    def test_detects_tight_correlation(self, table):
        skeleton = initialize_skeleton(table)
        strategies = [skeleton.strategy_for(dim) for dim in ("x", "y")]
        assert any(
            isinstance(s, (FunctionalMappingStrategy, ConditionalCDFStrategy)) for s in strategies
        )

    def test_independent_dims_stay_independent(self):
        rng = np.random.default_rng(5)
        table = Table.from_arrays(
            "ind", {"a": rng.integers(0, 10_000, 10_000), "b": rng.integers(0, 10_000, 10_000)}
        )
        skeleton = initialize_skeleton(table)
        assert isinstance(skeleton.strategy_for("a"), IndependentCDFStrategy)
        assert isinstance(skeleton.strategy_for("b"), IndependentCDFStrategy)

    def test_result_is_valid_skeleton(self, table):
        skeleton = initialize_skeleton(table)
        assert isinstance(skeleton, Skeleton)
        assert set(skeleton.dimensions) == {"x", "y", "z", "w"}


class TestInitializePartitions:
    def test_more_selective_dims_get_more_partitions(self, table, workload):
        skeleton = Skeleton.all_independent(["x", "y", "z", "w"])
        partitions = initialize_partitions(skeleton, table, workload)
        # w is never filtered (average selectivity 1.0) so it should receive
        # no more partitions than the heavily filtered x.
        assert partitions["x"] >= partitions["w"]

    def test_total_cells_close_to_target(self, table, workload):
        skeleton = Skeleton.all_independent(["x", "y", "z", "w"])
        partitions = initialize_partitions(
            skeleton, table, workload, target_points_per_cell=256
        )
        total = int(np.prod(list(partitions.values())))
        assert total <= 20_000  # never more cells than rows

    def test_all_counts_at_least_one(self, table, workload):
        partitions = initialize_partitions(
            Skeleton.all_independent(["x", "y", "z", "w"]), table, workload
        )
        assert all(count >= 1 for count in partitions.values())

    def test_empty_workload(self, table):
        partitions = initialize_partitions(
            Skeleton.all_independent(["x", "y"]), table, Workload([])
        )
        assert set(partitions) == {"x", "y"}

    def test_cell_budget_respected(self, table, workload):
        partitions = initialize_partitions(
            Skeleton.all_independent(["x", "y", "z", "w"]),
            table,
            workload,
            target_points_per_cell=1,
            max_cells=64,
        )
        assert int(np.prod(list(partitions.values()))) <= 64


class TestAdaptPartitions:
    def test_new_grid_dim_gets_default(self):
        skeleton = Skeleton.all_independent(["a", "b"])
        adapted = adapt_partitions({"a": 4}, skeleton, defaults={"a": 4, "b": 7})
        assert adapted == {"a": 4, "b": 7}

    def test_dropped_dimension_removed(self):
        skeleton = Skeleton(
            {"a": IndependentCDFStrategy(), "b": FunctionalMappingStrategy(target="a")}
        )
        adapted = adapt_partitions({"a": 4, "b": 9}, skeleton, defaults={})
        assert adapted == {"a": 4}

    def test_budget_enforced(self):
        skeleton = Skeleton.all_independent(["a", "b"])
        adapted = adapt_partitions({"a": 100, "b": 100}, skeleton, defaults={}, max_cells=100)
        assert adapted["a"] * adapted["b"] <= 100


class TestConfigurationEvaluator:
    def test_infeasible_configuration_costs_infinity(self, table, workload):
        evaluator = ConfigurationEvaluator(table, workload, max_cells=16)
        cost = evaluator.evaluate(
            Skeleton.all_independent(["x", "y", "z", "w"]),
            {"x": 10, "y": 10, "z": 10, "w": 10},
        )
        assert cost == float("inf")

    def test_cache_avoids_reevaluation(self, table, workload):
        evaluator = ConfigurationEvaluator(table, workload)
        skeleton = Skeleton.all_independent(["x", "y", "z", "w"])
        partitions = {"x": 4, "y": 4, "z": 2, "w": 1}
        evaluator.evaluate(skeleton, partitions)
        first = evaluator.evaluations
        evaluator.evaluate(skeleton, partitions)
        assert evaluator.evaluations == first

    def test_scanned_points_scaled_to_full_table(self, table, workload):
        evaluator = ConfigurationEvaluator(table, workload, sample_rows=2_000)
        features = evaluator.features_for(
            Skeleton.all_independent(["x", "y", "z", "w"]), {"x": 4, "y": 1, "z": 1, "w": 1}
        )
        assert max(f.points_scanned for f in features) <= table.num_rows
        assert any(f.points_scanned > 2_000 for f in features)

    def test_query_subsampling(self, table, workload):
        assert len(workload) > MAX_EVALUATION_QUERIES
        evaluator = ConfigurationEvaluator(table, workload)
        assert len(evaluator.queries) == MAX_EVALUATION_QUERIES
        assert set(evaluator.queries) <= set(workload)

    def test_finer_partitions_reduce_cost_on_filtered_dim(self, table, workload):
        evaluator = ConfigurationEvaluator(table, workload)
        skeleton = Skeleton.all_independent(["x", "y", "z", "w"])
        coarse = evaluator.evaluate(skeleton, {"x": 1, "y": 1, "z": 1, "w": 1})
        fine = evaluator.evaluate(skeleton, {"x": 16, "y": 8, "z": 4, "w": 1})
        assert fine < coarse


class TestOptimizers:
    def test_agd_improves_over_initial(self, table, workload):
        optimizer = AdaptiveGradientDescent(max_iterations=3)
        result = optimizer.optimize(table, workload)
        assert result.history[-1] <= result.history[0]
        assert result.predicted_cost == result.history[-1]
        assert result.method == "agd"

    def test_agd_result_is_buildable_and_correct(self, table, workload):
        result = AdaptiveGradientDescent(max_iterations=2).optimize(table, workload)
        grid = AugmentedGrid(result.config)
        permutation = grid.fit(table)
        assert len(permutation) == table.num_rows

    def test_gd_never_changes_skeleton(self, table, workload):
        optimizer = GradientDescentOnly(max_iterations=2, naive_init=True)
        result = optimizer.optimize(table, workload)
        assert result.config.skeleton == Skeleton.all_independent(["x", "y", "z", "w"])
        assert result.method == "gd"

    def test_agd_ni_starts_from_naive_skeleton(self, table, workload):
        result = AdaptiveGradientDescent(max_iterations=1, naive_init=True).optimize(table, workload)
        assert result.method == "agd-ni"

    def test_agd_not_worse_than_gd(self, table, workload):
        agd = AdaptiveGradientDescent(max_iterations=3).optimize(table, workload)
        gd = GradientDescentOnly(max_iterations=3).optimize(table, workload)
        assert agd.predicted_cost <= gd.predicted_cost * 1.05

    def test_blackbox_runs_and_is_no_worse_than_start(self, table, workload):
        result = BlackBoxOptimizer(iterations=2).optimize(table, workload)
        assert np.isfinite(result.predicted_cost)
        assert result.method == "blackbox"

    def test_empty_workload_rejected(self, table):
        with pytest.raises(OptimizationError):
            AdaptiveGradientDescent().optimize(table, Workload([]))
        with pytest.raises(OptimizationError):
            BlackBoxOptimizer().optimize(table, Workload([]))

    def test_optimizer_is_deterministic(self, table, workload):
        first = AdaptiveGradientDescent(max_iterations=2, seed=11).optimize(table, workload)
        second = AdaptiveGradientDescent(max_iterations=2, seed=11).optimize(table, workload)
        assert first.config.skeleton == second.config.skeleton
        assert first.config.partitions == second.config.partitions

    @pytest.mark.parametrize("max_cells", [4, 16, 64])
    def test_agd_starting_at_the_cell_budget_stays_within_it(self, max_cells):
        # One point per cell puts the starting layout at the budget, so every
        # upward neighbour of the gradient step is infeasible (costs inf).
        rng = np.random.default_rng(0)
        uniform = Table.from_arrays(
            "uniform", {"a": rng.integers(0, 10_000, 5_000), "b": rng.integers(0, 10_000, 5_000)}
        )
        queries = []
        for _ in range(12):
            a, b = (int(low) for low in rng.integers(0, 9_000, 2))
            queries.append(Query.from_ranges({"a": (a, a + 1_000), "b": (b, b + 1_000)}))
        result = AdaptiveGradientDescent(
            max_cells=max_cells, target_points_per_cell=1
        ).optimize(uniform, Workload(queries))
        assert np.prod(list(result.config.partitions.values())) <= max_cells
        assert np.isfinite(result.predicted_cost)


class TestBatchedEvaluation:
    """Batched candidate planning changes no optimizer decision.

    Every optimizer runs twice on the same fixtures: once with the production
    evaluator, once with the per-query planning loop it replaced
    (``reference_evaluator.py``) patched in.  The results must be equal:
    configuration, predicted cost, cost history and evaluation count.
    """

    @pytest.mark.parametrize(
        "make_optimizer",
        [
            AdaptiveGradientDescent,
            GradientDescentOnly,
            lambda: AdaptiveGradientDescent(naive_init=True),
            lambda: BlackBoxOptimizer(iterations=1),
        ],
        ids=["agd", "gd", "agd-ni", "blackbox"],
    )
    def test_optimizer_result_matches_per_query_oracle(
        self, table, workload, make_optimizer, monkeypatch
    ):
        batched = make_optimizer().optimize(table, workload)
        monkeypatch.setattr(ConfigurationEvaluator, "features_for", reference_features)
        oracle = make_optimizer().optimize(table, workload)
        assert batched == oracle
