"""Augmented Grid optimization: AGD and the alternatives from Fig. 12b (§5.3.2).

The optimization problem is to find the skeleton ``S`` and per-dimension
partition counts ``P`` minimizing the cost model's predicted average query
time over a sample workload.  Four optimizers are provided:

* :class:`AdaptiveGradientDescent` (AGD) — the paper's method: heuristic
  initialization of ``(S0, P0)``, then alternating numerical-gradient steps
  over ``P`` and a one-hop local search over skeletons.
* :class:`GradientDescentOnly` (GD) — same initialization, never changes the
  skeleton.
* AGD-NI — :class:`AdaptiveGradientDescent` with ``naive_init=True``: the
  initial skeleton partitions every dimension independently.
* :class:`BlackBoxOptimizer` — SciPy basin hopping over a continuous encoding
  of ``(S, P)``, as the paper's black-box comparison point.

All of them evaluate candidate configurations by fitting an Augmented Grid on
a row *sample* and planning the sample workload's queries through it, exactly
as §5.3.1 prescribes ("the number of scanned points is estimated using q,
(S, P), and a sample of D").  :class:`ConfigurationEvaluator` plans the whole
sample workload with one
:meth:`~repro.core.augmented_grid.AugmentedGrid.plan_counts` call per
candidate, which counts each query's spans without a plan cache, on a grid
fitted without its clustering permutation and with the per-dimension models
and partition ids shared across candidates.  The features equal per-query
:meth:`~repro.core.augmented_grid.AugmentedGrid.plan`'s
(``tests/reference_evaluator.py`` keeps that loop as the oracle), so every
optimizer decision is the same; the optimizer only runs faster.  Its
callers are every Tsunami build (each shard's too), incremental
re-optimization and local-merge splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as scipy_optimize

from repro.common.errors import OptimizationError
from repro.common.rng import make_rng
from repro.core.augmented_grid import DEFAULT_MAX_CELLS, AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import CostModel, QueryPlanFeatures
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.query.query import Query
from repro.query.selectivity import average_dimension_selectivity
from repro.query.workload import Workload
from repro.stats.cdf import EmpiricalCDF
from repro.stats.correlation import BoundedLinearModel, empty_cell_fraction
from repro.storage.table import Table

#: Relative error bound below which a functional mapping is used (§5.3.2).
MAPPING_ERROR_THRESHOLD = 0.10
#: Empty-cell fraction above which a conditional CDF is used (§5.3.2).
EMPTY_CELL_THRESHOLD = 0.25
#: Partition counts used when probing the empty-cell fraction heuristic.
_PROBE_PARTITIONS = 16


@dataclass
class OptimizerResult:
    """Outcome of one optimization run."""

    config: AugmentedGridConfig
    predicted_cost: float
    iterations: int
    evaluations: int
    history: list[float] = field(default_factory=list)
    method: str = "agd"


class ConfigurationEvaluator:
    """Evaluates ``(S, P)`` candidates on a row sample with the cost model."""

    def __init__(
        self,
        table: Table,
        workload: Workload,
        cost_model: CostModel | None = None,
        sample_rows: int = 20_000,
        max_cells: int = DEFAULT_MAX_CELLS,
        max_evaluation_queries: int = 40,
        seed: int = 23,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.max_cells = max_cells
        self.full_rows = table.num_rows
        if table.num_rows > sample_rows:
            self.sample = table.sample_rows(sample_rows, make_rng(seed))
        else:
            self.sample = table
        self.scale = self.full_rows / max(self.sample.num_rows, 1)
        queries = list(workload)
        if len(queries) > max_evaluation_queries:
            rng = make_rng(seed + 1)
            chosen = sorted(
                rng.choice(len(queries), size=max_evaluation_queries, replace=False)
            )
            queries = [queries[i] for i in chosen]
        self.queries: list[Query] = queries
        self.filtered_dimensions: set[str] = {
            dim for query in self.queries for dim in query.filtered_dimensions
        }
        self.evaluations = 0
        self._cache: dict[tuple, float] = {}
        # Per-dimension models (and the partition ids they assign) depend only
        # on the sample, not on (S, P); reuse them across the many candidate
        # configurations evaluated below.
        self._model_cache: dict = {}

    def _cache_key(self, skeleton: Skeleton, partitions: dict[str, int]) -> tuple:
        return (skeleton, tuple(sorted(partitions.items())))

    def features_for(
        self, skeleton: Skeleton, partitions: dict[str, int]
    ) -> list[QueryPlanFeatures]:
        """Plan the whole sample workload on a sample grid and scale the features.

        The grid is fitted without a clustering permutation (planning reads
        only per-cell row counts) and plans every query in one
        :meth:`~repro.core.augmented_grid.AugmentedGrid.plan_counts` call;
        the counts equal per-query :meth:`AugmentedGrid.plan`'s.
        """
        config = AugmentedGridConfig(
            skeleton=skeleton, partitions=dict(partitions), max_cells=self.max_cells
        )
        grid = AugmentedGrid(config)
        grid.fit_cells(self.sample, model_cache=self._model_cache)
        num_ranges, points = grid.plan_counts(self.queries)
        return [
            QueryPlanFeatures(
                num_cell_ranges=ranges,
                points_scanned=int(round(scanned * self.scale)),
                num_filtered_dimensions=query.num_filtered_dimensions,
            )
            for query, ranges, scanned in zip(self.queries, num_ranges.tolist(), points.tolist())
        ]

    def evaluate(self, skeleton: Skeleton, partitions: dict[str, int]) -> float:
        """Predicted average query cost of a configuration (``inf`` if infeasible)."""
        key = self._cache_key(skeleton, partitions)
        if key in self._cache:
            return self._cache[key]
        self.evaluations += 1
        try:
            features = self.features_for(skeleton, partitions)
            cost = self.cost_model.predict_average(features)
        except OptimizationError:
            cost = float("inf")
        self._cache[key] = cost
        return cost


# ---------------------------------------------------------------------------
# Initialization heuristics (§5.3.2 step 1)
# ---------------------------------------------------------------------------


def initialize_skeleton(
    table: Table,
    dimensions: list[str] | None = None,
    sample_rows: int = 10_000,
    seed: int = 29,
) -> Skeleton:
    """Heuristic initial skeleton: mappings for tight correlations, conditionals
    for pairs whose independent grid would be mostly empty, independent otherwise."""
    dims = dimensions or list(table.column_names)
    sample = table
    if table.num_rows > sample_rows:
        sample = table.sample_rows(sample_rows, make_rng(seed))

    strategies: dict[str, object] = {dim: IndependentCDFStrategy() for dim in dims}
    referenced: set[str] = set()
    values = {dim: sample.values(dim).astype(np.float64) for dim in dims}
    domains = {dim: float(max(np.ptp(values[dim]), 1.0)) for dim in dims}
    cdfs = {dim: EmpiricalCDF(values[dim], max_knots=128) for dim in dims}

    for dim in dims:
        if dim in referenced:
            continue  # targets and bases must stay independently partitioned
        best_mapping: tuple[str, float] | None = None
        best_conditional: tuple[str, float] | None = None
        for other in dims:
            if other == dim or other in strategies and not isinstance(
                strategies[other], IndependentCDFStrategy
            ):
                continue
            if other == dim:
                continue
            model = BoundedLinearModel.fit(values[dim], values[other])
            relative = model.relative_error(domains[other])
            if relative < MAPPING_ERROR_THRESHOLD and (
                best_mapping is None or relative < best_mapping[1]
            ):
                best_mapping = (other, relative)
            empty = empty_cell_fraction(
                cdfs[other].partitions_of(values[other], _PROBE_PARTITIONS),
                cdfs[dim].partitions_of(values[dim], _PROBE_PARTITIONS),
                _PROBE_PARTITIONS,
                _PROBE_PARTITIONS,
            )
            if empty > EMPTY_CELL_THRESHOLD and (
                best_conditional is None or empty > best_conditional[1]
            ):
                best_conditional = (other, empty)
        if best_mapping is not None:
            target = best_mapping[0]
            strategies[dim] = FunctionalMappingStrategy(target=target)
            referenced.add(target)
        elif best_conditional is not None:
            base = best_conditional[0]
            strategies[dim] = ConditionalCDFStrategy(base=base)
            referenced.add(base)

    # Any dimension that ended up referenced must be independent; drop the
    # non-independent strategy of a referenced dimension if a conflict slipped
    # through (possible when dim A chose B before B chose its own strategy).
    for dim in dims:
        if dim in referenced and not isinstance(strategies[dim], IndependentCDFStrategy):
            strategies[dim] = IndependentCDFStrategy()
    return Skeleton(strategies)


def initialize_partitions(
    skeleton: Skeleton,
    table: Table,
    workload: Workload,
    target_points_per_cell: int = 256,
    max_partitions_per_dimension: int = 1024,
    max_cells: int = DEFAULT_MAX_CELLS,
    sample_rows: int = 10_000,
    seed: int = 31,
) -> dict[str, int]:
    """Initial partition counts proportional to average filter selectivity (§5.3.2).

    Grid dimensions with more selective filters receive more partitions; the
    total cell count targets roughly ``num_rows / target_points_per_cell``.
    """
    grid_dims = skeleton.grid_dimensions
    if not grid_dims:
        return {}
    sample = table
    if table.num_rows > sample_rows:
        sample = table.sample_rows(sample_rows, make_rng(seed))
    queries = list(workload)
    weights = {}
    for dim in grid_dims:
        selectivity = average_dimension_selectivity(sample, queries, dim)
        weights[dim] = 1.0 / max(selectivity, 1e-3)
    target_cells = max(1, min(max_cells, table.num_rows // max(target_points_per_cell, 1)))
    log_weight_sum = sum(math.log(w) for w in weights.values())
    # Solve prod(w_i * s) = target_cells for the shared scale s.
    scale = math.exp((math.log(target_cells) - log_weight_sum) / len(grid_dims))
    partitions = {}
    for dim in grid_dims:
        count = int(round(weights[dim] * scale))
        partitions[dim] = int(np.clip(count, 1, max_partitions_per_dimension))
    return _enforce_cell_budget(partitions, max_cells)


def _enforce_cell_budget(partitions: dict[str, int], max_cells: int) -> dict[str, int]:
    """Scale partition counts down until their product fits the cell budget."""
    result = dict(partitions)
    while result and math.prod(result.values()) > max_cells:
        largest = max(result, key=result.get)
        if result[largest] == 1:
            break
        result[largest] = max(1, result[largest] // 2)
    return result


def adapt_partitions(
    partitions: dict[str, int],
    skeleton: Skeleton,
    defaults: dict[str, int],
    max_cells: int = DEFAULT_MAX_CELLS,
) -> dict[str, int]:
    """Adapt a partition vector to a (possibly different) skeleton's grid dims."""
    adapted = {}
    for dim in skeleton.grid_dimensions:
        adapted[dim] = partitions.get(dim, defaults.get(dim, 2))
    return _enforce_cell_budget(adapted, max_cells)


# ---------------------------------------------------------------------------
# Adaptive Gradient Descent (§5.3.2)
# ---------------------------------------------------------------------------


@dataclass
class AdaptiveGradientDescent:
    """The paper's AGD optimizer (set ``naive_init=True`` for the AGD-NI variant)."""

    cost_model: CostModel = field(default_factory=CostModel)
    max_iterations: int = 5
    gradient_step: float = 0.5
    min_relative_improvement: float = 1e-3
    naive_init: bool = False
    search_skeleton: bool = True
    target_points_per_cell: int = 256
    sample_rows: int = 20_000
    max_cells: int = DEFAULT_MAX_CELLS
    seed: int = 37
    method_name: str = "agd"

    def optimize(
        self,
        table: Table,
        workload: Workload,
        dimensions: list[str] | None = None,
    ) -> OptimizerResult:
        """Run the optimization and return the best configuration found."""
        if len(workload) == 0:
            raise OptimizationError("cannot optimize an Augmented Grid with no queries")
        dims = dimensions or list(table.column_names)
        evaluator = ConfigurationEvaluator(
            table,
            workload,
            cost_model=self.cost_model,
            sample_rows=self.sample_rows,
            max_cells=self.max_cells,
            seed=self.seed,
        )
        if self.naive_init:
            skeleton = Skeleton.all_independent(dims)
        else:
            skeleton = initialize_skeleton(table, dimensions=dims, seed=self.seed)
        defaults = initialize_partitions(
            Skeleton.all_independent(dims),
            table,
            workload,
            target_points_per_cell=self.target_points_per_cell,
            max_cells=self.max_cells,
            seed=self.seed,
        )
        partitions = adapt_partitions(defaults, skeleton, defaults, self.max_cells)
        cost = evaluator.evaluate(skeleton, partitions)
        history = [cost]

        for iteration in range(self.max_iterations):
            improved = False

            # Step 2: one numerical-gradient step over P.
            new_partitions, new_cost = self._gradient_step(
                evaluator, skeleton, partitions, cost
            )
            if new_cost < cost * (1.0 - self.min_relative_improvement):
                partitions, cost, improved = new_partitions, new_cost, True

            # Step 3: local search over skeletons one hop away.
            if self.search_skeleton:
                new_skeleton, new_partitions, new_cost = self._skeleton_search(
                    evaluator, skeleton, partitions, defaults, cost
                )
                if new_cost < cost * (1.0 - self.min_relative_improvement):
                    skeleton, partitions, cost = new_skeleton, new_partitions, new_cost
                    improved = True

            history.append(cost)
            if not improved:
                break

        config = AugmentedGridConfig(
            skeleton=skeleton, partitions=partitions, max_cells=self.max_cells
        )
        if self.method_name != "agd":
            method = self.method_name
        else:
            method = "agd-ni" if self.naive_init else "agd"
        return OptimizerResult(
            config=config,
            predicted_cost=cost,
            iterations=len(history) - 1,
            evaluations=evaluator.evaluations,
            history=history,
            method=method,
        )

    # -- internals ------------------------------------------------------------------

    def _gradient_step(
        self,
        evaluator: ConfigurationEvaluator,
        skeleton: Skeleton,
        partitions: dict[str, int],
        current_cost: float,
    ) -> tuple[dict[str, int], float]:
        """One descent step over the partition vector using numerical gradients.

        A neighbour over the cell budget costs ``inf`` and contributes no
        slope: that side differences against the current layout instead, and
        a dimension with both neighbours infeasible has zero slope.
        """
        grid_dims = skeleton.grid_dimensions
        if not grid_dims:
            return partitions, current_cost
        gradient: dict[str, float] = {}
        for dim in grid_dims:
            delta = max(1, int(round(partitions[dim] * 0.25)))
            upper = dict(partitions)
            upper[dim] = partitions[dim] + delta
            lower = dict(partitions)
            lower[dim] = max(1, partitions[dim] - delta)
            cost_up = evaluator.evaluate(skeleton, upper)
            cost_down = evaluator.evaluate(skeleton, lower)
            if math.isinf(cost_up):
                upper, cost_up = partitions, current_cost
            if math.isinf(cost_down):
                lower, cost_down = partitions, current_cost
            span = upper[dim] - lower[dim]
            gradient[dim] = (cost_up - cost_down) / span if span else 0.0

        norm = math.sqrt(sum(g * g for g in gradient.values()))
        if norm == 0:
            return partitions, current_cost

        step = self.gradient_step
        for _ in range(4):  # backtracking line search
            proposal = {}
            for dim in grid_dims:
                relative_move = -step * gradient[dim] / norm
                new_count = partitions[dim] * (1.0 + relative_move)
                proposal[dim] = int(np.clip(round(new_count), 1, 4096))
            proposal = _enforce_cell_budget(proposal, self.max_cells)
            cost = evaluator.evaluate(skeleton, proposal)
            if cost < current_cost:
                return proposal, cost
            step /= 2.0
        return partitions, current_cost

    def _skeleton_search(
        self,
        evaluator: ConfigurationEvaluator,
        skeleton: Skeleton,
        partitions: dict[str, int],
        defaults: dict[str, int],
        current_cost: float,
    ) -> tuple[Skeleton, dict[str, int], float]:
        """Local search over skeletons one hop away from the current skeleton.

        Only hops that change the strategy of a dimension the workload actually
        filters are evaluated: changing how an unfiltered dimension is
        partitioned cannot affect any query plan, so evaluating those
        neighbours would only waste optimization time.
        """
        best = (skeleton, partitions, current_cost)
        for candidate in skeleton.one_hop_neighbours():
            changed = [
                dim
                for dim in skeleton.dimensions
                if skeleton.strategy_for(dim) != candidate.strategy_for(dim)
            ]
            if changed and changed[0] not in evaluator.filtered_dimensions:
                continue
            candidate_partitions = adapt_partitions(
                partitions, candidate, defaults, self.max_cells
            )
            cost = evaluator.evaluate(candidate, candidate_partitions)
            if cost < best[2]:
                best = (candidate, candidate_partitions, cost)
        return best


def GradientDescentOnly(**kwargs) -> AdaptiveGradientDescent:
    """The GD baseline of Fig. 12b: AGD initialization without skeleton search."""
    kwargs.setdefault("search_skeleton", False)
    kwargs.setdefault("method_name", "gd")
    return AdaptiveGradientDescent(**kwargs)


# ---------------------------------------------------------------------------
# Black-box baseline (basin hopping, §6.6)
# ---------------------------------------------------------------------------


@dataclass
class BlackBoxOptimizer:
    """Basin-hopping over a continuous encoding of ``(S, P)`` (Fig. 12b baseline)."""

    cost_model: CostModel = field(default_factory=CostModel)
    iterations: int = 50
    target_points_per_cell: int = 256
    sample_rows: int = 20_000
    max_cells: int = DEFAULT_MAX_CELLS
    seed: int = 41

    def _decode(
        self, vector: np.ndarray, dims: list[str], defaults: dict[str, int]
    ) -> tuple[Skeleton, dict[str, int]]:
        """Decode a continuous vector into a valid (skeleton, partitions) pair."""
        num_dims = len(dims)
        strategies: dict[str, object] = {}
        referenced: set[str] = set()
        for index, dim in enumerate(dims):
            choice = int(np.clip(round(vector[index]), 0, 2 * (num_dims - 1)))
            if choice == 0 or dim in referenced:
                strategies[dim] = IndependentCDFStrategy()
                continue
            partner_index = (choice - 1) // 2
            partner = [d for d in dims if d != dim][partner_index % (num_dims - 1)]
            already = strategies.get(partner)
            if partner in referenced or (
                already is not None and not isinstance(already, IndependentCDFStrategy)
            ):
                strategies[dim] = IndependentCDFStrategy()
                continue
            if (choice - 1) % 2 == 0:
                strategies[dim] = FunctionalMappingStrategy(target=partner)
            else:
                strategies[dim] = ConditionalCDFStrategy(base=partner)
            referenced.add(partner)
        for dim in dims:
            if dim in referenced:
                strategies[dim] = IndependentCDFStrategy()
        skeleton = Skeleton(strategies)
        partitions = {}
        for index, dim in enumerate(dims):
            if dim not in skeleton.grid_dimensions:
                continue
            log_count = float(vector[num_dims + index])
            partitions[dim] = int(np.clip(round(2.0**log_count), 1, 4096))
        partitions = adapt_partitions(partitions, skeleton, defaults, self.max_cells)
        return skeleton, partitions

    def optimize(
        self,
        table: Table,
        workload: Workload,
        dimensions: list[str] | None = None,
    ) -> OptimizerResult:
        """Run basin hopping and return the best decoded configuration."""
        if len(workload) == 0:
            raise OptimizationError("cannot optimize an Augmented Grid with no queries")
        dims = dimensions or list(table.column_names)
        evaluator = ConfigurationEvaluator(
            table,
            workload,
            cost_model=self.cost_model,
            sample_rows=self.sample_rows,
            max_cells=self.max_cells,
            seed=self.seed,
        )
        skeleton0 = initialize_skeleton(table, dimensions=dims, seed=self.seed)
        defaults = initialize_partitions(
            Skeleton.all_independent(dims),
            table,
            workload,
            target_points_per_cell=self.target_points_per_cell,
            max_cells=self.max_cells,
            seed=self.seed,
        )
        partitions0 = adapt_partitions(defaults, skeleton0, defaults, self.max_cells)

        # Encode the initial configuration: strategy choice per dim, log2(P) per dim.
        x0 = np.zeros(2 * len(dims))
        for index, dim in enumerate(dims):
            strategy = skeleton0.strategy_for(dim)
            partner_list = [d for d in dims if d != dim]
            if isinstance(strategy, FunctionalMappingStrategy):
                x0[index] = 1 + 2 * partner_list.index(strategy.target)
            elif isinstance(strategy, ConditionalCDFStrategy):
                x0[index] = 2 + 2 * partner_list.index(strategy.base)
            count = partitions0.get(dim, defaults.get(dim, 2))
            x0[len(dims) + index] = math.log2(max(count, 1))

        history: list[float] = []

        def objective(vector: np.ndarray) -> float:
            skeleton, partitions = self._decode(vector, dims, defaults)
            cost = evaluator.evaluate(skeleton, partitions)
            history.append(cost)
            return cost if math.isfinite(cost) else 1e18

        result = scipy_optimize.basinhopping(
            objective,
            x0,
            niter=self.iterations,
            seed=self.seed,
            # Cap the local minimizer's function evaluations: every evaluation
            # fits a sample grid, so an unbounded Powell run would dominate the
            # optimization budget without improving the decoded configuration.
            minimizer_kwargs={
                "method": "Powell",
                "options": {"maxiter": 2, "maxfev": 40},
            },
            stepsize=1.0,
        )
        best_skeleton, best_partitions = self._decode(result.x, dims, defaults)
        best_cost = evaluator.evaluate(best_skeleton, best_partitions)
        # Basin hopping can wander off; never return something worse than the start.
        start_cost = evaluator.evaluate(skeleton0, partitions0)
        if start_cost < best_cost:
            best_skeleton, best_partitions, best_cost = skeleton0, partitions0, start_cost
        config = AugmentedGridConfig(
            skeleton=best_skeleton, partitions=best_partitions, max_cells=self.max_cells
        )
        return OptimizerResult(
            config=config,
            predicted_cost=best_cost,
            iterations=self.iterations,
            evaluations=evaluator.evaluations,
            history=history,
            method="blackbox",
        )
