"""The Augmented Grid: a correlation-aware grid index over one region (§5).

An Augmented Grid generalizes Flood's grid.  Every dimension uses one of three
partitioning strategies (see :mod:`repro.core.skeleton`):

* independent CDF partitioning (Flood's behaviour),
* a functional mapping that removes the dimension from the grid and rewrites
  its filters onto a target dimension (§5.2.1),
* conditional-CDF partitioning given a base dimension (§5.2.2), which
  staggers partition boundaries so cells stay equally sized under correlation.

The grid owns the physical order of its rows: :meth:`AugmentedGrid.fit`
computes a cell id per row and returns the permutation that clusters rows by
cell (:meth:`AugmentedGrid.fit_cells` stops before the permutation, for grids
that are planned but never executed).  Queries are planned by enumerating
intersecting cells (respecting the conditional-CDF dependency structure),
converted to contiguous cell ranges, and either executed against the table or
returned as cost-model features — the optimizer (§5.3) uses the same planning
code on a data sample.

The planner computes every per-dimension partition window once, expands the
cross product of the *outer* dimensions with numpy stride arithmetic, and
emits one coalesced span per outer-dimension prefix — cells consecutive in the
innermost dimension occupy contiguous physical rows, so no per-cell Python
work is needed.  One expansion core plans a whole batch of queries at once,
carrying a query id through the cross product and breaking coalesced spans at
query boundaries.

Both callers read a query's bounds through one role table, built when the
grid is fitted: per skeleton dimension, which grid position a filter on it
windows, through which CDF (one per base partition for a conditional
dimension), after which functional mapping.

* :meth:`AugmentedGrid.plan` serves one query.  It loops over the query's
  own predicates and windows only the positions they bound.  Those windows,
  as plain ints after the query type and the sorted filtered dimensions,
  are the plan-cache key: every other window is full, so the key is
  lossless.  A cache miss runs the core as a batch of one on the same
  windows and keeps the spans.
* :meth:`AugmentedGrid.plan_counts` takes the optimizer's whole sample
  workload.  Its windows are computed as arrays for every query at once, and
  it returns only per-query ``(num_cell_ranges, points_scanned)``, equal to
  what :meth:`~AugmentedGrid.plan` reports.

``tests/reference_planner.py`` keeps the per-cell recursive enumeration as the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.common.errors import IndexBuildError, OptimizationError
from repro.core.cost_model import QueryPlanFeatures
from repro.core.outliers import OutlierBoundedMapping
from repro.core.query_types import PlanCache
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
    Skeleton,
)
from repro.query.query import Query
from repro.stats.cdf import ConditionalCDF, EmpiricalCDF
from repro.stats.correlation import BoundedLinearModel
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: Hard ceiling on the number of grid cells a single Augmented Grid may have.
#: Protects the lookup table from exploding when an optimizer proposes an
#: unreasonable partition vector (§5.1 discusses exactly this space blow-up).
DEFAULT_MAX_CELLS = 1 << 20

#: Knot caps of an independent dimension's CDF model and of each
#: conditional CDF.
CDF_KNOTS = 64
CONDITIONAL_KNOTS = 32


@dataclass(frozen=True)
class AugmentedGridConfig:
    """A concrete Augmented Grid instantiation: skeleton plus partition counts.

    ``outlier_aware_mappings`` enables the §8 extension implemented in
    :mod:`repro.core.outliers`: functional mappings buffer extreme rows
    separately so a handful of outliers cannot inflate the mapping's error
    bounds.  ``outlier_fraction`` caps how many rows may be buffered per
    mapping.
    """

    skeleton: Skeleton
    partitions: dict[str, int]
    max_cells: int = DEFAULT_MAX_CELLS
    outlier_aware_mappings: bool = False
    outlier_fraction: float = 0.05

    def validated(self) -> "AugmentedGridConfig":
        """Check partition counts against the skeleton and the cell budget."""
        grid_dims = self.skeleton.grid_dimensions
        missing = [dim for dim in grid_dims if dim not in self.partitions]
        if missing:
            raise OptimizationError(
                f"partition counts missing for grid dimensions {missing}"
            )
        for dim in grid_dims:
            if self.partitions[dim] < 1:
                raise OptimizationError(
                    f"dimension {dim!r} has invalid partition count "
                    f"{self.partitions[dim]}"
                )
        total_cells = 1
        for dim in grid_dims:
            total_cells *= self.partitions[dim]
        if total_cells > self.max_cells:
            raise OptimizationError(
                f"configuration would create {total_cells} cells, exceeding the "
                f"budget of {self.max_cells}"
            )
        return self

    @property
    def total_cells(self) -> int:
        """Number of cells this configuration creates."""
        total = 1
        for dim in self.skeleton.grid_dimensions:
            total *= self.partitions[dim]
        return total


@dataclass(frozen=True, slots=True)
class _Role:
    """What a filter on one skeleton dimension does to the grid's windows.

    The filter's bounds window grid position ``position``, which has
    ``count`` partitions.  An independent position (``base`` is -1) has one
    window, through its CDF ``cdf``.  A conditional position has one window
    per partition of the grid position ``base`` (``base_count`` partitions)
    inside that position's window, through ``cdf[base partition]``.  A
    mapped dimension first rewrites its bounds onto its target with
    ``mapping``; the rest of its role is the target's.
    """

    position: int
    count: int
    cdf: EmpiricalCDF | tuple[EmpiricalCDF, ...]
    base: int = -1
    base_count: int = 1
    mapping: BoundedLinearModel | OutlierBoundedMapping | None = None


@dataclass
class _BatchWindows:
    """Partition windows of a batch of queries, as :meth:`AugmentedGrid._batch_windows` builds them.

    ``firsts``/``lasts`` hold one inclusive window per (query, independent
    grid dimension); ``conditional`` maps each conditional dimension to a
    ``(queries, base partitions)`` pair of window tables indexed by absolute
    base partition.  Empty windows are ``first > last``.  Grid dimensions
    from ``depth`` on are unrestricted for every query: full windows and no
    filter.
    """

    firsts: np.ndarray
    lasts: np.ndarray
    conditional: dict[str, tuple[np.ndarray, np.ndarray]]
    depth: int


class AugmentedGrid:
    """A fitted Augmented Grid over one region's rows.

    ``plan_cache`` optionally memoizes planned spans under the
    query's type and quantized (partition-window) bounds so skewed workloads
    reuse plans instead of re-planning.  The cache is cleared by :meth:`fit`
    because spans are offsets into the clustered row order.

    A fitted grid keeps a role table (:class:`_Role` per skeleton dimension
    whose filter windows a position with more than one partition).  It is
    derived from the fitted models, so snapshots leave it out and rebuild
    it on load.
    """

    def __init__(
        self,
        config: AugmentedGridConfig,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.plan_cache = plan_cache
        self.config = config.validated()
        self.skeleton = config.skeleton
        # Grid-dimension order: independents first so conditional dimensions
        # always see their base's partition during enumeration and fitting.
        independents = [
            dim
            for dim in self.skeleton.dimensions
            if isinstance(self.skeleton.strategy_for(dim), IndependentCDFStrategy)
        ]
        conditionals = [
            dim
            for dim in self.skeleton.dimensions
            if isinstance(self.skeleton.strategy_for(dim), ConditionalCDFStrategy)
        ]
        self.grid_dimensions: list[str] = independents + conditionals
        self._num_independent = len(independents)
        # Independent dimensions some conditional dimension partitions against;
        # the planner tracks partition assignments only for these.
        self._base_dims: set[str] = {
            self.skeleton.strategy_for(dim).base for dim in conditionals
        }
        self._strides: dict[str, int] = {}
        self._cdf_models: dict[str, EmpiricalCDF] = {}
        self._conditional_models: dict[str, ConditionalCDF] = {}
        self._mapping_models: dict[str, BoundedLinearModel | OutlierBoundedMapping] = {}
        self._roles: dict[str, _Role] = {}
        self._offsets: np.ndarray | None = None
        self._num_rows = 0
        self._fitted = False

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_roles"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._roles = {}
        if self._fitted:
            self._build_roles()

    # -- fitting -----------------------------------------------------------------

    def fit(self, table: Table, model_cache: dict | None = None) -> np.ndarray:
        """Fit all models, assign rows to cells, and return the clustering permutation.

        The returned permutation orders the table's rows by cell id; the
        internal lookup table assumes that order, so the caller must apply the
        permutation (or an equivalent global reordering) before executing
        queries through this grid.

        ``model_cache`` lets the optimizer reuse per-dimension models across
        the many candidate configurations it evaluates on the *same* sample
        table; it must not be shared across different tables.
        """
        return np.argsort(self.fit_cells(table, model_cache), kind="stable")

    def fit_cells(self, table: Table, model_cache: dict | None = None) -> np.ndarray:
        """Fit all models and the cell lookup table; return every row's cell id.

        This is :meth:`fit` without the clustering permutation.  Planning
        needs only per-cell row counts, so a grid that is planned but never
        executed (the optimizer's sample grids) stops here.  With a
        ``model_cache`` the per-dimension partition ids are cached too,
        keyed by the model and partition count that produced them.
        """
        if table.num_rows == 0:
            raise IndexBuildError("cannot fit an Augmented Grid over zero rows")
        for dim in self.skeleton.dimensions:
            if dim not in table:
                raise IndexBuildError(
                    f"skeleton dimension {dim!r} is not a column of table {table.name!r}"
                )
        self._num_rows = table.num_rows
        partition_ids: dict[str, np.ndarray] = {}
        cache = model_cache if model_cache is not None else {}

        # Independent dimensions first: their CDF models and partition ids are
        # needed by both conditional dimensions and functional mappings.
        # Dimensions with a single partition need no model at all: every row
        # lands in partition 0.
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            if not isinstance(strategy, IndependentCDFStrategy):
                continue
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(table.num_rows, dtype=np.int64)
                continue
            # Model resolution only needs to resolve ``count`` partition
            # boundaries, so size the knot budget proportionally.
            knots = min(CDF_KNOTS, max(8, 4 * count))
            key = ("cdf", dim, knots)
            model = cache.get(key)
            if model is None:
                model = EmpiricalCDF(table.values(dim), max_knots=knots)
                cache[key] = model
            self._cdf_models[dim] = model
            ids_key = key + (count,)
            ids = cache.get(ids_key)
            if ids is None:
                ids = model.partitions_of(table.values(dim), count)
                cache[ids_key] = ids
            partition_ids[dim] = ids

        # Conditional dimensions: one CDF per base partition.
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            if not isinstance(strategy, ConditionalCDFStrategy):
                continue
            base = strategy.base
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(table.num_rows, dtype=np.int64)
                continue
            knots = min(CONDITIONAL_KNOTS, max(4, 4 * count))
            key = ("cond", dim, base, self.config.partitions[base], knots)
            model = cache.get(key)
            if model is None:
                model = ConditionalCDF(
                    base_partitions=partition_ids[base],
                    dependent_values=table.values(dim),
                    num_base_partitions=self.config.partitions[base],
                    max_knots=knots,
                )
                cache[key] = model
            self._conditional_models[dim] = model
            ids_key = key + (count,)
            ids = cache.get(ids_key)
            if ids is None:
                ids = model.partitions_of(table.values(dim), partition_ids[base], count)
                cache[ids_key] = ids
            partition_ids[dim] = ids

        # Mapped dimensions: fit the bounded regression predicting the target.
        # With ``outlier_aware_mappings`` the §8 extension is used instead:
        # extreme rows go to a per-mapping outlier buffer so they cannot
        # inflate the error bounds (see repro.core.outliers).
        for dim in self.skeleton.mapped_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            assert isinstance(strategy, FunctionalMappingStrategy)
            key = ("map", dim, strategy.target, self.config.outlier_aware_mappings)
            model = cache.get(key)
            if model is None:
                if self.config.outlier_aware_mappings:
                    model = OutlierBoundedMapping.fit(
                        mapped_values=table.values(dim),
                        target_values=table.values(strategy.target),
                        max_outlier_fraction=self.config.outlier_fraction,
                    )
                else:
                    model = BoundedLinearModel.fit(
                        mapped_values=table.values(dim),
                        target_values=table.values(strategy.target),
                    )
                cache[key] = model
            self._mapping_models[dim] = model

        # Row-major cell ids over the grid dimensions.
        self._strides = {}
        stride = 1
        for dim in reversed(self.grid_dimensions):
            self._strides[dim] = stride
            stride *= self.config.partitions[dim]
        total_cells = stride if self.grid_dimensions else 1

        cell_ids = np.zeros(table.num_rows, dtype=np.int64)
        for dim in self.grid_dimensions:
            cell_ids += partition_ids[dim] * self._strides[dim]

        counts = np.bincount(cell_ids, minlength=total_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._fitted = True
        self._build_roles()
        if self.plan_cache is not None:
            # Cached spans are offsets into the previous clustered order.
            self.plan_cache.clear()
        return cell_ids

    def absorb(
        self, appended: Table, plan_cache: PlanCache | None = None
    ) -> tuple["AugmentedGrid", np.ndarray]:
        """Fold rows appended after this grid's rows into a new fitted grid.

        Returns the new grid plus the stable clustering permutation over the
        combined rows (this grid's rows first, ``appended`` after them);
        ``self`` is never mutated, so a caller that fails mid-merge keeps a
        consistent serving grid.

        The existing rows are *not* re-assigned: the new grid shares this
        grid's CDF and conditional-CDF models, under which their partition
        ids are unchanged, so only the appended rows are pushed through the
        models and merged into the sorted-by-cell order.  That makes absorb
        cost proportional to the appended rows (plus one O(region) stable
        merge), not to the quantile sweeps a full refit pays.  Reused CDFs
        stay correct because row assignment and query planning go through
        the same model — a stale boundary shifts cells, never answers.
        Functional mappings are the exception: their error bounds must cover
        every row they serve, so the new grid gets bound-widened copies
        (:meth:`~repro.stats.correlation.BoundedLinearModel.widened`)
        covering the appended rows' residuals.
        """
        self._require_fitted()
        assert self._offsets is not None
        num_appended = appended.num_rows
        grid = AugmentedGrid(self.config, plan_cache=plan_cache)
        grid._cdf_models = dict(self._cdf_models)
        grid._conditional_models = dict(self._conditional_models)
        grid._strides = dict(self._strides)

        partition_ids: dict[str, np.ndarray] = {}
        for dim in self.grid_dimensions:
            strategy = self.skeleton.strategy_for(dim)
            count = self.config.partitions[dim]
            if count == 1:
                partition_ids[dim] = np.zeros(num_appended, dtype=np.int64)
            elif isinstance(strategy, IndependentCDFStrategy):
                partition_ids[dim] = self._cdf_models[dim].partitions_of(
                    appended.values(dim), count
                )
            else:
                assert isinstance(strategy, ConditionalCDFStrategy)
                partition_ids[dim] = self._conditional_models[dim].partitions_of(
                    appended.values(dim), partition_ids[strategy.base], count
                )
        for dim, model in self._mapping_models.items():
            strategy = self.skeleton.strategy_for(dim)
            assert isinstance(strategy, FunctionalMappingStrategy)
            grid._mapping_models[dim] = model.widened(
                appended.values(dim), appended.values(strategy.target)
            )

        appended_cells = np.zeros(num_appended, dtype=np.int64)
        for dim in self.grid_dimensions:
            appended_cells += partition_ids[dim] * self._strides[dim]
        counts = np.diff(self._offsets)
        existing_cells = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        permutation = np.argsort(
            np.concatenate([existing_cells, appended_cells]), kind="stable"
        )
        counts = counts + np.bincount(appended_cells, minlength=counts.size)
        grid._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        grid._num_rows = self._num_rows + num_appended
        grid._fitted = True
        grid._build_roles()
        return grid, permutation

    def _build_roles(self) -> None:
        """Compile the role table from the fitted models (see :class:`_Role`).

        A position with one partition has no role: every filter on it leaves
        the one full window, so it only counts as a filtered dimension.
        """
        roles: dict[str, _Role] = {}
        for position, dim in enumerate(self.grid_dimensions):
            count = self.config.partitions[dim]
            if count == 1:
                continue
            strategy = self.skeleton.strategy_for(dim)
            if isinstance(strategy, IndependentCDFStrategy):
                roles[dim] = _Role(position, count, self._cdf_models[dim])
                continue
            model = self._conditional_models[dim]
            base_count = self.config.partitions[strategy.base]
            roles[dim] = _Role(
                position,
                count,
                tuple(model.model_for(part) for part in range(base_count)),
                base=self.grid_dimensions.index(strategy.base),
                base_count=base_count,
            )
        for dim in self.skeleton.mapped_dimensions:
            target = roles.get(self.skeleton.strategy_for(dim).target)
            if target is not None:
                roles[dim] = replace(target, mapping=self._mapping_models[dim])
        self._roles = roles

    # -- planning ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted or self._offsets is None:
            raise IndexBuildError("AugmentedGrid has not been fitted")

    def _bounds(self, query: Query) -> dict[int, tuple[_Role, float, float]]:
        """The query's filter bounds per windowed grid position, through the role table.

        Only the query's own predicates are read.  A filter on a mapped
        dimension is rewritten (via the mapping's error bounds) into a
        covering range over its target and intersected with any direct
        filter on the target.  Each entry keeps the position's role beside
        its ``(low, high)``.
        """
        bounds: dict[int, tuple[_Role, float, float]] = {}
        roles = self._roles
        for predicate in query.predicates:
            role = roles.get(predicate.dimension)
            if role is None:
                continue
            low, high = float(predicate.low), float(predicate.high)
            if role.mapping is not None:
                low, high = role.mapping.map_range(low, high)
            known = bounds.get(role.position)
            if known is not None:
                low, high = max(known[1], low), min(known[2], high)
            bounds[role.position] = (role, low, high)
        return bounds

    def _windows(self, bounds: dict[int, tuple[_Role, float, float]], key: list) -> dict:
        """Partition windows of the bounded positions, appended to ``key`` in grid order.

        An independent position gets one inclusive ``(first, last)`` window;
        a conditional one gets a list of them, one per base partition inside
        the base position's window.  Empty windows are ``first > last``.
        Every unbounded position's windows are full, so the filtered
        dimensions plus these windows fix the plan: appended to ``key`` as
        plain ints, they make the lossless plan-cache key.
        """
        windows: dict = {}
        for position in sorted(bounds):
            role, low, high = bounds[position]
            if role.base < 0:
                window = (1, 0) if high < low else role.cdf.partition_range(low, high, role.count)
                key += window
            else:
                base_first, base_last = windows.get(role.base, (0, role.base_count - 1))
                parts = range(base_first, base_last + 1)
                if high < low:
                    window = [(1, 0)] * len(parts)
                else:
                    window = [role.cdf[part].partition_range(low, high, role.count) for part in parts]
                for pair in window:
                    key += pair
            windows[position] = window
        return windows

    def _batch_windows(self, queries: Sequence[Query]) -> _BatchWindows:
        """Every grid dimension's partition windows for a batch of queries.

        The array form of :meth:`_windows`, reading bounds through the same
        role table: each independent dimension's windows are computed for
        the whole batch with :meth:`~repro.stats.cdf.EmpiricalCDF.partitions_of`,
        and each conditional dimension's ``(queries, base partitions)`` table
        is filled one base-partition model at a time.
        """
        bounds = [self._bounds(query) for query in queries]
        filtered = {dim for query in queries for dim in query.filtered_dimensions}
        num_queries = len(queries)
        independent = self.grid_dimensions[: self._num_independent]
        firsts = np.zeros((num_queries, len(independent)), dtype=np.int64)
        lasts = np.array([self.config.partitions[dim] - 1 for dim in independent], dtype=np.int64)
        lasts = np.repeat(lasts[None, :], num_queries, axis=0)
        windows = _BatchWindows(firsts, lasts, {}, 0)
        for position, dim in enumerate(self.grid_dimensions):
            count = self.config.partitions[dim]
            if position < self._num_independent:
                dim_firsts, dim_lasts = firsts[:, position], lasts[:, position]
            else:
                base = self.skeleton.strategy_for(dim).base
                shape = (num_queries, self.config.partitions[base])
                dim_firsts = np.zeros(shape, dtype=np.int64)
                dim_lasts = np.full(shape, count - 1, dtype=np.int64)
                windows.conditional[dim] = (dim_firsts, dim_lasts)
            bounded = [row for row, query_bounds in enumerate(bounds) if position in query_bounds]
            if dim in filtered or bounded:
                windows.depth = position + 1
            if not bounded:
                continue
            role = self._roles[dim]
            rows = np.array(bounded, dtype=np.int64)
            lows = np.array([bounds[row][position][1] for row in bounded], dtype=np.float64)
            highs = np.array([bounds[row][position][2] for row in bounded], dtype=np.float64)
            if role.base < 0:
                dim_firsts[rows] = role.cdf.partitions_of(lows, count)
                dim_lasts[rows] = role.cdf.partitions_of(highs, count)
            else:
                # Only base partitions inside some query's base window are read.
                for base_partition in range(
                    int(firsts[rows, role.base].min()),
                    int(lasts[rows, role.base].max()) + 1,
                ):
                    cdf = role.cdf[base_partition]
                    dim_firsts[rows, base_partition] = cdf.partitions_of(lows, count)
                    dim_lasts[rows, base_partition] = cdf.partitions_of(highs, count)
            empty = rows[highs < lows]
            dim_firsts[empty] = 1
            dim_lasts[empty] = 0
        return windows

    def _batch_of_one(self, query: Query, windows: dict) -> _BatchWindows:
        """One query's :meth:`_windows` in :meth:`_batch_windows`' layout."""
        dims = self.grid_dimensions
        independent = self._num_independent
        filtered = query.filtered_dimensions
        depth = 0
        for position, dim in enumerate(dims):
            if position in windows or dim in filtered:
                depth = position + 1
        firsts = np.zeros((1, independent), dtype=np.int64)
        lasts = np.array(
            [[self.config.partitions[dim] - 1 for dim in dims[:independent]]], dtype=np.int64
        )
        for position, window in windows.items():
            if position < independent:
                firsts[0, position], lasts[0, position] = window
        batch = _BatchWindows(firsts, lasts, {}, depth)
        for position in range(independent, depth):
            dim = dims[position]
            base = self.skeleton.strategy_for(dim).base
            tables = np.zeros((2, self.config.partitions[base]), dtype=np.int64)
            tables[1] = self.config.partitions[dim] - 1
            window = windows.get(position)
            if window:
                base_first = int(firsts[0, dims.index(base)])
                tables[:, base_first : base_first + len(window)] = np.array(window).T
            batch.conditional[dim] = (tables[:1], tables[1:])
        return batch

    def _expand_spans(
        self, queries: Sequence[Query], windows: _BatchWindows
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Coalesced spans of a batch of queries, without per-cell work.

        Returns four parallel arrays ``(query ids, starts, stops, exact)``,
        grouped by query in input order.  Only the first ``windows.depth``
        grid dimensions are expanded: below the last one any query
        restricts, each prefix's cells are one contiguous block per
        partition.  The outer independent dimensions' cross product is
        enumerated per query in mixed radix (each prefix's digits are its
        positions inside the query's windows), the outer conditional
        dimensions are expanded with ``np.repeat`` over ragged per-prefix
        windows, and the innermost expanded dimension yields at most three
        spans per prefix — the two boundary blocks and the exact interior
        run.  Spans coalesce across row-contiguous neighbours but never
        across a query boundary, so each query's spans are byte-identical to
        per-cell recursive enumeration.
        """
        assert self._offsets is not None
        offsets = self._offsets
        dims = self.grid_dimensions
        depth = windows.depth
        filtered = [set(query.filtered_dimensions) for query in queries]
        exact = np.array([f.issubset(dims) for f in filtered], dtype=bool)
        num_queries = len(queries)

        def filter_mask(dim: str) -> np.ndarray | bool:
            """Which prefixes' queries filter ``dim``, or a bool when all or none do."""
            mask = [dim in f for f in filtered]
            if all(mask) or not any(mask):
                return bool(mask) and mask[0]
            return np.array(mask, dtype=bool)[query_ids]

        def narrowed(exact: np.ndarray, dim: str, interior) -> np.ndarray:
            """``exact`` after ``dim``: where a query filters ``dim``, only
            partitions strictly inside its window (``interior()``) stay exact;
            boundary partitions may straddle the filter edge."""
            mask = filter_mask(dim)
            if mask is False:
                return exact
            if mask is True:
                return exact & interior()
            return exact & (interior() | ~mask)

        if depth == 0:
            # Nothing is restricted: each query's one span is every row.
            query_ids = np.arange(num_queries if offsets[-1] > offsets[0] else 0)
            size = query_ids.size
            return query_ids, np.full(size, offsets[0]), np.full(size, offsets[-1]), exact[query_ids]

        # Outer independent dimensions: one prefix per mixed-radix number
        # whose digits are the prefix's positions inside the query's windows.
        outer = min(depth - 1, self._num_independent)
        lengths = np.maximum(windows.lasts - windows.firsts + 1, 0)
        counts = np.multiply.reduce(lengths[:, :outer], axis=1)
        if num_queries == 1:
            # A plan-cache miss: the one query's prefixes are numbered directly.
            digits = np.arange(counts[0])
            query_ids = np.zeros(digits.size, dtype=np.int64)
        else:
            query_ids = np.repeat(np.arange(num_queries), counts)
            digits = np.arange(query_ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
        strides = np.array([self._strides[dim] for dim in dims[:outer]], dtype=np.int64)
        cell_base = (windows.firsts[:, :outer] @ strides)[query_ids]
        exact = exact[query_ids]
        part_ids: dict[str, np.ndarray] = {}
        for position in range(outer - 1, -1, -1):
            dim = dims[position]
            length = lengths[:, position][query_ids]
            digit = digits
            if position:
                digit = digits % length
                digits = digits // length
            cell_base += digit * strides[position]
            exact = narrowed(exact, dim, lambda: (digit > 0) & (digit < length - 1))
            if dim in self._base_dims:
                part_ids[dim] = windows.firsts[:, position][query_ids] + digit

        def prefix_windows(position: int) -> tuple[np.ndarray, np.ndarray]:
            if position < self._num_independent:
                return windows.firsts[:, position][query_ids], windows.lasts[:, position][query_ids]
            dim = dims[position]
            table_firsts, table_lasts = windows.conditional[dim]
            base_parts = part_ids[self.skeleton.strategy_for(dim).base]
            return table_firsts[query_ids, base_parts], table_lasts[query_ids, base_parts]

        # Outer conditional dimensions: ragged windows, one per prefix.
        for position in range(outer, depth - 1):
            dim = dims[position]
            firsts, lasts = prefix_windows(position)
            lengths = np.maximum(lasts - firsts + 1, 0)
            repeats = np.repeat(np.arange(lengths.size), lengths)
            parts = np.arange(repeats.size) + (firsts + lengths - np.cumsum(lengths))[repeats]
            firsts, lasts = firsts[repeats], lasts[repeats]
            query_ids = query_ids[repeats]
            exact = narrowed(exact[repeats], dim, lambda: (parts > firsts) & (parts < lasts))
            cell_base = cell_base[repeats] + parts * self._strides[dim]
            part_ids = {d: a[repeats] for d, a in part_ids.items()}

        innermost = dims[depth - 1]
        firsts, lasts = prefix_windows(depth - 1)
        valid = lasts >= firsts
        if not valid.all():
            query_ids, cell_base, exact = query_ids[valid], cell_base[valid], exact[valid]
            firsts, lasts = firsts[valid], lasts[valid]

        # Cells [base + first * block, base + (last + 1) * block) are one
        # contiguous physical run.  A prefix whose exactness survived emits
        # its two boundary blocks inexactly and the interior exactly; any
        # other prefix is a single span.
        block = self._strides[innermost]
        low_cell = cell_base + firsts * block
        high_cell = cell_base + (lasts + 1) * block
        decomposed = exact & filter_mask(innermost)
        multi = decomposed & (lasts > firsts)

        num_prefixes = cell_base.size
        span_lo = np.zeros((num_prefixes, 3), dtype=np.int64)
        span_hi = np.zeros((num_prefixes, 3), dtype=np.int64)
        span_exact = np.zeros((num_prefixes, 3), dtype=bool)
        span_lo[:, 0] = low_cell
        span_hi[:, 0] = np.where(decomposed, low_cell + block, high_cell)
        span_exact[:, 0] = exact & ~decomposed
        span_lo[:, 1] = np.where(multi, low_cell + block, 0)
        span_hi[:, 1] = np.where(multi, high_cell - block, 0)
        span_exact[:, 1] = multi
        span_lo[:, 2] = np.where(multi, high_cell - block, 0)
        span_hi[:, 2] = np.where(multi, high_cell, 0)

        row_start = offsets[span_lo.reshape(-1)]
        row_stop = offsets[span_hi.reshape(-1)]
        keep = row_start < row_stop
        query_ids = np.repeat(query_ids, 3)[keep]
        row_start, row_stop = row_start[keep], row_stop[keep]
        flags = span_exact.reshape(-1)[keep]
        if row_start.size == 0:
            return query_ids, row_start, row_stop, flags

        # Coalesce row-contiguous spans of one query agreeing on exactness
        # (each query's candidates are already sorted and non-overlapping).
        breaks = np.empty(row_start.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = (row_start[1:] != row_stop[:-1]) | (flags[1:] != flags[:-1])
        if num_queries > 1:
            breaks[1:] |= query_ids[1:] != query_ids[:-1]
        first_index = np.flatnonzero(breaks)
        last_index = np.append(first_index[1:], row_start.size) - 1
        return (
            query_ids[first_index],
            row_start[first_index],
            row_stop[last_index],
            flags[first_index],
        )

    def _spans(self, query: Query) -> list[tuple[int, int, bool]]:
        """Relative ``(start, stop, exact)`` row spans of ``query``.

        The query's predicates are read through the role table into the
        windows of its bounded positions, which also make the plan-cache
        key; a miss expands the spans from those same windows as a batch of
        one.
        """
        self._require_fitted()
        signature = [query.query_type, tuple(sorted(query.filtered_dimensions))]
        windows = self._windows(self._bounds(query), signature)
        key = tuple(signature)
        cache = self.plan_cache
        spans = None if cache is None else cache.get(key)
        if spans is None:
            _, starts, stops, flags = self._expand_spans(
                (query,), self._batch_of_one(query, windows)
            )
            spans = list(zip(starts.tolist(), stops.tolist(), flags.tolist()))
            if cache is not None:
                cache.put(key, spans)
        return spans

    def plan(self, query: Query) -> tuple[list[tuple[int, int, bool]], QueryPlanFeatures]:
        """Plan ``query``: relative row ranges plus cost-model features."""
        spans = self._spans(query)
        features = QueryPlanFeatures(
            num_cell_ranges=len(spans),
            points_scanned=sum(stop - start for start, stop, _ in spans),
            num_filtered_dimensions=query.num_filtered_dimensions,
        )
        return spans, features

    def plan_counts(self, queries: Sequence[Query]) -> tuple[np.ndarray, np.ndarray]:
        """Per-query ``(num_cell_ranges, points_scanned)`` of a whole batch.

        The numbers equal what :meth:`plan` reports for each query, but the
        batch is planned in one pass: windows as arrays, one span expansion
        for every query, no span tuples and no plan cache.  The optimizer
        scores each candidate configuration with one call.
        """
        self._require_fitted()
        query_ids, starts, stops, _ = self._expand_spans(queries, self._batch_windows(queries))
        num_ranges = np.bincount(query_ids, minlength=len(queries))
        ends = np.cumsum(num_ranges)
        scanned = np.concatenate(([0], np.cumsum(stops - starts)))
        return num_ranges, scanned[ends] - scanned[ends - num_ranges]

    def ranges_for_query(self, query: Query, offset: int = 0) -> list[RowRange]:
        """Physical row ranges for ``query``, shifted by the region's ``offset``."""
        return [
            RowRange(offset + start, offset + stop, exact=exact)
            for start, stop, exact in self._spans(query)
        ]

    # -- reporting ---------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows this grid indexes."""
        return self._num_rows

    @property
    def num_cells(self) -> int:
        """Total number of grid cells (including empty ones)."""
        return self.config.total_cells

    @property
    def num_nonempty_cells(self) -> int:
        """Number of grid cells containing at least one row."""
        self._require_fitted()
        assert self._offsets is not None
        return int(np.count_nonzero(np.diff(self._offsets)))

    def cell_sizes(self) -> np.ndarray:
        """Number of rows in every cell (length ``num_cells``)."""
        self._require_fitted()
        assert self._offsets is not None
        return np.diff(self._offsets)

    def index_size_bytes(self) -> int:
        """Lookup table plus all per-dimension models (§5.1 space accounting)."""
        self._require_fitted()
        total = self.num_cells * 8  # lookup table: one offset per cell
        for model in self._cdf_models.values():
            total += model.size_bytes()
        for conditional in self._conditional_models.values():
            total += conditional.size_bytes()
        for mapping in self._mapping_models.values():
            total += mapping.size_bytes()
        return total

    def describe(self) -> dict:
        """Structural statistics used by Table 4 and the drill-down benchmarks."""
        return {
            "skeleton": self.skeleton.describe(),
            "partitions": dict(self.config.partitions),
            "num_cells": self.num_cells,
            "num_nonempty_cells": self.num_nonempty_cells if self._fitted else 0,
            "num_functional_mappings": self.skeleton.num_functional_mappings,
            "num_conditional_cdfs": self.skeleton.num_conditional_cdfs,
            "size_bytes": self.index_size_bytes() if self._fitted else 0,
        }
