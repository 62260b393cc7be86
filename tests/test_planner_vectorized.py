"""Differential tests: the production planner vs the reference recursive planner.

The production planner must be indistinguishable from the original per-cell
recursive enumeration (``reference_planner.py``): identical spans, identical
order, identical ``exact`` flags, on every skeleton shape (independent /
mapped / outlier-buffered mapped / conditional dimensions), partition vector,
and query — including degenerate queries with empty or inverted windows.
``plan_counts`` must report every query's ``plan()`` features.  Both must
also stay faster than their oracles.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference_evaluator import reference_features
from reference_planner import reference_spans, window_table

from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.optimizer import ConfigurationEvaluator
from repro.core.query_types import PlanCache
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.core.tsunami import TsunamiConfig
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table

DIMS = ("a", "b", "c", "d")


def make_table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 10_000, num_rows)
    b = a * 2 + rng.integers(-60, 61, num_rows)  # tight correlation with a
    c = rng.integers(0, 700, num_rows)
    d = (a // 3) + rng.integers(-200, 201, num_rows)  # loose correlation
    return Table.from_arrays("diff", {"a": a, "b": b, "c": c, "d": d})


@st.composite
def planner_cases(draw):
    """A random (config, table size, table seed, queries) case."""
    num_dims = draw(st.integers(min_value=2, max_value=4))
    dims = DIMS[:num_dims]
    # Dimension "a" anchors the skeleton: bases and targets must stay
    # independent, so every other dimension may reference it.
    strategies = {"a": IndependentCDFStrategy()}
    for dim in dims[1:]:
        choice = draw(st.sampled_from(["independent", "conditional", "mapped"]))
        if choice == "conditional":
            strategies[dim] = ConditionalCDFStrategy(base="a")
        elif choice == "mapped":
            strategies[dim] = FunctionalMappingStrategy(target="a")
        else:
            strategies[dim] = IndependentCDFStrategy()
    skeleton = Skeleton(strategies)
    partitions = {
        dim: draw(st.integers(min_value=1, max_value=6))
        for dim in skeleton.grid_dimensions
    }
    config = AugmentedGridConfig(
        skeleton=skeleton,
        partitions=partitions,
        outlier_aware_mappings=draw(st.booleans()),
    )
    table_seed = draw(st.integers(min_value=0, max_value=50))
    num_rows = draw(st.integers(min_value=200, max_value=800))

    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        filtered = draw(
            st.lists(st.sampled_from(dims), unique=True, min_size=0, max_size=num_dims)
        )
        ranges = {}
        for dim in filtered:
            low = draw(st.integers(min_value=-2_000, max_value=22_000))
            # Occasionally inverted (low > high) to exercise empty windows.
            high = low + draw(st.integers(min_value=-500, max_value=9_000))
            ranges[dim] = (low, high)
        if not ranges:
            ranges = {"a": (0, draw(st.integers(min_value=0, max_value=10_000)))}
        try:
            queries.append(Query.from_ranges(ranges))
        except Exception:
            pass
    return config, num_rows, table_seed, queries


def twin_of(grid: AugmentedGrid, query: Query) -> Query:
    """A new query object whose bounds move inside the same partition windows.

    Each filter's bounds are shifted by the largest step that leaves the
    oracle's window table unchanged (for a mapped dimension, its target's
    windows); a filter no step keeps is left as it is.
    """
    table = window_table(grid, query)
    ranges = query.filters()
    for dim in list(ranges):
        low, high = ranges[dim]
        for step in (257, 31, 5, 1):
            moves = ((step, -step), (-step, step), (step, step), (-step, -step))
            kept = [
                (low + low_move, high + high_move)
                for low_move, high_move in moves
                if low + low_move <= high + high_move
                and window_table(
                    grid,
                    Query.from_ranges(
                        {**ranges, dim: (low + low_move, high + high_move)},
                        query_type=query.query_type,
                    ),
                )
                == table
            ]
            if kept:
                ranges[dim] = kept[0]
                break
    return Query.from_ranges(ranges, query_type=query.query_type)


#: One grid with every strategy: independent, conditional, and an
#: outlier-aware mapped dimension, with queries filtering each of them.
ALL_STRATEGIES_CASE = (
    AugmentedGridConfig(
        skeleton=Skeleton(
            {
                "a": IndependentCDFStrategy(),
                "b": ConditionalCDFStrategy(base="a"),
                "c": IndependentCDFStrategy(),
                "d": FunctionalMappingStrategy(target="a"),
            }
        ),
        partitions={"a": 5, "b": 4, "c": 3},
        outlier_aware_mappings=True,
    ),
    600,
    7,
    [
        Query.from_ranges({"a": (1_000, 6_000)}, query_type=0),
        Query.from_ranges({"b": (2_000, 9_000), "c": (100, 400)}, query_type=1),
        Query.from_ranges({"d": (500, 2_500), "c": (50, 300)}, query_type=2),
        Query.from_ranges({"a": (2_500, 7_500), "b": (4_000, 16_000), "d": (300, 2_800)}),
    ],
)


#: Tightly correlated ``a`` and ``b``, both independent at 6x6 partitions:
#: most (a, b) cells are empty, so a query filtering only the innermost
#: position ``c`` walks mostly empty outer prefixes, which the planner skips.
SPARSE_PREFIXES_CASE = (
    AugmentedGridConfig(
        skeleton=Skeleton.all_independent(["a", "b", "c"]),
        partitions={"a": 6, "b": 6, "c": 3},
    ),
    800,
    3,
    [
        Query.from_ranges({"c": (100, 400)}),
        Query.from_ranges({"c": (0, 699)}),
        Query.from_ranges({"a": (2_000, 7_000), "c": (150, 250)}),
    ],
)

#: A filtered outer position with one partition: its one window is never
#: strictly inside the filter, so no span below it may be exact.
ONE_PARTITION_FILTER_CASE = (
    AugmentedGridConfig(
        skeleton=Skeleton.all_independent(["a", "b", "c"]),
        partitions={"a": 1, "b": 4, "c": 5},
    ),
    600,
    5,
    [
        Query.from_ranges({"a": (1_000, 6_000), "c": (200, 450)}),
        Query.from_ranges({"a": (0, 9_000), "b": (4_000, 16_000), "c": (100, 550)}),
        Query.from_ranges({"a": (1_000, 6_000)}),
        Query.from_ranges({"b": (4_000, 16_000), "c": (100, 550)}),
    ],
)

#: A conditional position under an empty base window: the filter on ``d``
#: maps onto ``a`` far above the direct filter on ``a``, so their
#: intersection is inverted and no base partition is left to condition on.
INVERTED_BASE_CASE = (
    AugmentedGridConfig(
        skeleton=Skeleton(
            {
                "a": IndependentCDFStrategy(),
                "b": ConditionalCDFStrategy(base="a"),
                "c": IndependentCDFStrategy(),
                "d": FunctionalMappingStrategy(target="a"),
            }
        ),
        partitions={"a": 5, "b": 4, "c": 3},
    ),
    600,
    9,
    [
        Query.from_ranges({"a": (0, 1_000), "d": (4_000, 6_000), "b": (2_000, 9_000)}),
        Query.from_ranges({"a": (0, 1_000), "d": (4_000, 6_000), "c": (100, 400)}),
        Query.from_ranges({"b": (2_000, 9_000), "c": (100, 400)}),
    ],
)


class TestDifferentialPlanning:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planner_cases())
    @example(SPARSE_PREFIXES_CASE)
    @example(ONE_PARTITION_FILTER_CASE)
    @example(INVERTED_BASE_CASE)
    def test_vectorized_planner_matches_reference(self, case):
        config, num_rows, table_seed, queries = case
        table = make_table(num_rows, table_seed)
        grid = AugmentedGrid(config)
        grid.fit(table)
        planned = []
        for query in queries:
            spans, features = grid.plan(query)
            assert spans == reference_spans(grid, query)
            assert features.num_cell_ranges == len(spans)
            assert features.points_scanned == sum(stop - start for start, stop, _ in spans)
            planned.append((features.num_cell_ranges, features.points_scanned))
        # plan_counts reports every query's plan() features.
        num_ranges, points = grid.plan_counts(queries)
        assert list(zip(num_ranges.tolist(), points.tolist())) == planned
        num_ranges, points = grid.plan_counts([])
        assert num_ranges.size == points.size == 0

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planner_cases())
    def test_cached_plans_match_reference(self, case):
        """Plan-cache hits must replay exactly the reference plan."""
        config, num_rows, table_seed, queries = case
        table = make_table(num_rows, table_seed)
        cached = AugmentedGrid(config, plan_cache=PlanCache())
        cached.fit(table)
        for query in queries * 2:  # second pass is all cache hits
            spans_c, _ = cached.plan(query)
            assert spans_c == reference_spans(cached, query)
        assert cached.plan_cache.stats.hits >= len(queries)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(planner_cases())
    @example(ALL_STRATEGIES_CASE)
    def test_twin_queries_hit_and_match_reference(self, case):
        """A different query object with the same windows must hit the cache.

        Each query's twin moves its bounds inside the same partition
        windows.  The twin must be a plan-cache hit and replay exactly the
        reference plan of the twin, so the key is neither finer than the
        windows (no hit) nor coarser (a wrong plan).
        """
        config, num_rows, table_seed, queries = case
        table = make_table(num_rows, table_seed)
        cached = AugmentedGrid(config, plan_cache=PlanCache())
        cached.fit(table)
        for query in queries:
            cached.plan(query)
        for query in queries:
            twin = twin_of(cached, query)
            hits = cached.plan_cache.stats.hits
            spans, _ = cached.plan(twin)
            assert cached.plan_cache.stats.hits == hits + 1
            assert spans == reference_spans(cached, twin)


def fitted(case) -> tuple[AugmentedGrid, list[Query]]:
    """The case's grid fitted on its table, and its queries."""
    config, num_rows, table_seed, queries = case
    grid = AugmentedGrid(config)
    grid.fit(make_table(num_rows, table_seed))
    return grid, queries


class TestExpanderBranches:
    """Each branch of the span expander on a grid built to reach it."""

    def test_empty_outer_prefixes_are_skipped(self):
        grid, queries = fitted(SPARSE_PREFIXES_CASE)
        prefix_rows = grid.cell_sizes().reshape(6, 6, 3).sum(axis=2)
        # The case is sparse as built: most (a, b) prefixes hold no row.
        assert 2 * np.count_nonzero(prefix_rows) < prefix_rows.size
        for query in queries:
            spans, _ = grid.plan(query)
            assert spans == reference_spans(grid, query)
        # A filter covering all of c reads every row, in row order.
        spans, _ = grid.plan(Query.from_ranges({"c": (0, 699)}))
        assert spans[0][0] == 0 and spans[-1][1] == grid.num_rows
        assert all(left[1] == right[0] for left, right in zip(spans, spans[1:]))
        num_ranges, points = grid.plan_counts(queries)
        assert points.tolist() == [
            sum(stop - start for start, stop, _ in grid.plan(query)[0]) for query in queries
        ]
        assert num_ranges.tolist() == [len(grid.plan(query)[0]) for query in queries]

    def test_filter_on_one_partition_position_is_never_exact(self):
        grid, queries = fitted(ONE_PARTITION_FILTER_CASE)
        for query in queries:
            spans, _ = grid.plan(query)
            assert spans == reference_spans(grid, query)
            if "a" in query.filtered_dimensions:
                assert spans and not any(exact for _, _, exact in spans)
            else:
                # Without the filter on a, the same grid has exact spans.
                assert any(exact for _, _, exact in spans)

    def test_query_restricting_no_grid_position_is_one_span(self):
        """A filter only on a one-partition position restricts no window:
        the plan is one inexact span of every row."""
        grid, _ = fitted(ONE_PARTITION_FILTER_CASE)
        query = Query.from_ranges({"a": (1_000, 6_000)})
        spans, features = grid.plan(query)
        assert spans == [(0, grid.num_rows, False)] == reference_spans(grid, query)
        assert features.num_cell_ranges == 1
        assert features.points_scanned == grid.num_rows
        num_ranges, points = grid.plan_counts([query])
        assert (num_ranges.tolist(), points.tolist()) == ([1], [grid.num_rows])

    def test_conditional_position_under_inverted_base_plans_nothing(self):
        grid, queries = fitted(INVERTED_BASE_CASE)
        inverted, open_base = queries[:2], queries[2]
        for query in inverted:
            spans, features = grid.plan(query)
            assert spans == [] == reference_spans(grid, query)
            assert features.num_cell_ranges == features.points_scanned == 0
        num_ranges, points = grid.plan_counts(inverted)
        assert num_ranges.tolist() == points.tolist() == [0, 0]
        # Without a base filter, the conditional position's windows plan rows.
        spans, _ = grid.plan(open_base)
        assert spans and spans == reference_spans(grid, open_base)


class TestWindowsOnBreaks:
    def test_bounds_on_compiled_breaks_match_reference(self):
        """Low-cardinality columns put partition breaks on integer knots,
        where query bounds can sit exactly; a window's two bisects must place
        a bound on a break as the oracle's interpolation formula does, for
        independent and conditional positions."""
        rng = np.random.default_rng(11)
        a = rng.integers(0, 12, 900)
        table = Table.from_arrays(
            "breaks", {"a": a, "b": (a + rng.integers(0, 3, 900)) % 12, "c": rng.integers(0, 9, 900)}
        )
        config = AugmentedGridConfig(
            skeleton=Skeleton(
                {
                    "a": IndependentCDFStrategy(),
                    "b": ConditionalCDFStrategy(base="a"),
                    "c": IndependentCDFStrategy(),
                }
            ),
            partitions={"a": 4, "b": 3, "c": 5},
        )
        grid = AugmentedGrid(config, plan_cache=PlanCache())
        grid.fit(table)
        models = [(grid._cdf_models["a"], 4), (grid._cdf_models["c"], 5)]
        models += [(grid._conditional_models["b"].model_for(part), 3) for part in range(4)]
        on_knots = {b for model, count in models for b in model.partitioning(count).breaks if b == int(b)}
        assert on_knots
        for value in sorted(int(b) for b in on_knots):
            for low, high in ((value, value), (value - 1, value), (value, value + 1)):
                for dim in ("a", "b", "c"):
                    query = Query.from_ranges({dim: (low, high)})
                    assert grid.plan(query)[0] == reference_spans(grid, query)


class TestPlannerConfiguration:
    def test_unknown_planner_rejected(self):
        """The span planner is the only one: no planner can be selected.

        The per-cell planner lives on only as the test oracle, so a grid or a
        Tsunami config asked for any planner fails instead of ignoring it.
        """
        config = AugmentedGridConfig(
            skeleton=Skeleton.all_independent(["a"]), partitions={"a": 2}
        )
        for planner in ("quantum", "reference"):
            with pytest.raises(TypeError):
                AugmentedGrid(config, planner=planner)
            with pytest.raises(TypeError):
                TsunamiConfig(planner=planner)

    def test_fit_clears_plan_cache(self):
        table = make_table(400, seed=3)
        config = AugmentedGridConfig(
            skeleton=Skeleton.all_independent(["a", "b", "c", "d"]),
            partitions={"a": 4, "b": 4, "c": 2, "d": 2},
        )
        grid = AugmentedGrid(config, plan_cache=PlanCache())
        grid.fit(table)
        grid.plan(Query.from_ranges({"a": (0, 5_000)}))
        assert len(grid.plan_cache) == 1
        grid.fit(table)
        assert len(grid.plan_cache) == 0

    def test_vectorized_answers_match_full_scan(self):
        table = make_table(700, seed=4)
        config = AugmentedGridConfig(
            skeleton=Skeleton(
                {
                    "a": IndependentCDFStrategy(),
                    "b": ConditionalCDFStrategy(base="a"),
                    "c": IndependentCDFStrategy(),
                    "d": FunctionalMappingStrategy(target="a"),
                }
            ),
            partitions={"a": 5, "b": 4, "c": 3},
        )
        grid = AugmentedGrid(config)
        permutation = grid.fit(table)
        table.reorder(permutation)
        from repro.storage.scan import ScanExecutor

        executor = ScanExecutor(table)
        for ranges in (
            {"a": (1_000, 6_000)},
            {"b": (2_000, 9_000), "c": (100, 400)},
            {"d": (500, 2_500)},
            {"a": (20_000, 30_000)},  # empty result
        ):
            query = Query.from_ranges(ranges)
            expected, _ = execute_full_scan(table, query)
            value, _ = executor.execute(
                grid.ranges_for_query(query), query.filters(), query.aggregate
            )
            assert value == expected


class TestPlanningSpeed:
    def test_vectorized_planner_outplans_reference(self):
        """Plans/s on a 64x64x16 grid: the production planner vs the oracle.

        One of the tier-1 suite's two timing assertions: the production
        planner runs 13-23x the reference's plans/s on a 2-core host, so a
        1.0x floor cannot flake.
        """
        rng = np.random.default_rng(11)
        table = Table.from_arrays(
            "plan_bench", {dim: rng.integers(0, 1_000_000, 40_000) for dim in "xyz"}
        )
        grid = AugmentedGrid(
            AugmentedGridConfig(
                skeleton=Skeleton.all_independent(["x", "y", "z"]),
                partitions={"x": 64, "y": 64, "z": 16},
            )
        )
        grid.fit(table)
        queries = []
        for _ in range(60):
            x_low = int(rng.integers(0, 800_000))
            y_low = int(rng.integers(0, 600_000))
            ranges = {
                "x": (x_low, x_low + int(rng.integers(50_000, 300_000))),
                "y": (y_low, y_low + int(rng.integers(100_000, 400_000))),
            }
            if rng.random() < 0.5:
                z_low = int(rng.integers(0, 700_000))
                ranges["z"] = (z_low, z_low + int(rng.integers(100_000, 300_000)))
            queries.append(Query.from_ranges(ranges))

        def best_seconds(plan) -> float:
            for query in queries[:8]:  # warm-up
                plan(query)
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                for query in queries:
                    plan(query)
                best = min(best, time.perf_counter() - start)
            return best

        reference = best_seconds(lambda query: reference_spans(grid, query))
        vectorized = best_seconds(grid.plan)
        assert reference / vectorized >= 1.0

    def test_batched_features_outrun_per_query_planning(self):
        """One candidate's features: ``features_for`` vs the per-query oracle.

        The tier-1 suite's other timing assertion.  Both sides reuse warm
        per-dimension models and plan each query through the same windows
        and expansion, so the comparison is the oracle's per-query
        ``plan()`` overhead plus the clustering sort the evaluator skips:
        ``features_for`` runs 1.6-2.3x the oracle's speed on a 2-core host,
        so a 1.0x floor holds.
        """
        rng = np.random.default_rng(13)
        table = make_table(20_000, seed=5)
        queries = []
        for _ in range(40):
            a_low = int(rng.integers(0, 9_000))
            ranges = {"a": (a_low, a_low + int(rng.integers(200, 2_000)))}
            if rng.random() < 0.5:
                c_low = int(rng.integers(0, 600))
                ranges["c"] = (c_low, c_low + int(rng.integers(20, 200)))
            else:
                b_low = int(rng.integers(0, 18_000))
                ranges["b"] = (b_low, b_low + int(rng.integers(500, 4_000)))
            queries.append(Query.from_ranges(ranges))
        evaluator = ConfigurationEvaluator(table, Workload(queries))
        skeleton = Skeleton(
            {
                "a": IndependentCDFStrategy(),
                "b": ConditionalCDFStrategy(base="a"),
                "c": IndependentCDFStrategy(),
                "d": FunctionalMappingStrategy(target="a"),
            }
        )
        partitions = {"a": 24, "b": 8, "c": 12}
        oracle_cache: dict = {}

        def best_seconds(features) -> float:
            features()  # warm-up: fits the models both sides reuse
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                features()
                best = min(best, time.perf_counter() - start)
            return best

        batched = best_seconds(lambda: evaluator.features_for(skeleton, partitions))
        oracle = best_seconds(
            lambda: reference_features(evaluator, skeleton, partitions, oracle_cache)
        )
        assert evaluator.features_for(skeleton, partitions) == reference_features(
            evaluator, skeleton, partitions
        )
        assert oracle / batched >= 1.0
