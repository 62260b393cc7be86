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

One planner path serves both callers, one query at a time.  A query's
predicates are read through a role table, built when the grid is fitted:
per skeleton dimension, which grid position a filter on it windows, through
which compiled partition function (one per base partition for a conditional
dimension), after which functional mapping.  Only the positions the query
bounds get partition windows; every other window is full.  A window is two
bisects: each CDF model compiles the doubles at which its partition changes
(:meth:`~repro.stats.cdf.EmpiricalCDF.partitioning`), and rows were assigned
to cells through the same compiled function.  The expander then walks the
*outer* positions prefix by prefix, skipping a prefix whose cells hold no
row, and emits at most three spans per prefix at the innermost restricted
position — cells consecutive in the innermost dimension occupy contiguous
physical rows, so no per-cell Python work is needed.

* :meth:`AugmentedGrid.ranges_for_query` and :meth:`AugmentedGrid.plan`
  serve one query.  Its windows, as plain ints after the query type and the
  sorted filtered dimensions, are the plan-cache key: every other window is
  full, so the key is lossless.  A caller that plans one query in many
  regions takes its :class:`QueryTerms` (that key prefix and the float
  bounds) once.  A cache miss expands the spans from the same windows and
  keeps them; the entry also keeps the row ranges it last handed out, so a
  warm hit builds none until a local merge moves the region.
* :meth:`AugmentedGrid.plan_counts` takes the optimizer's sample workload
  and returns only per-query ``(num_cell_ranges, points_scanned)``, equal to
  what :meth:`~AugmentedGrid.plan` reports, without a plan cache.

``tests/reference_planner.py`` keeps the per-cell recursive enumeration as the
differential oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

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


#: A compiled partition function as ``(breaks, ids)`` lists: value ``x``
#: lies in partition ``ids[bisect_right(breaks, x)]`` (see
#: :class:`~repro.stats.cdf.Partitioning`).
_Split = tuple[list[float], list[int]]


@dataclass(frozen=True, slots=True)
class _Role:
    """What a filter on one skeleton dimension does to the grid's windows.

    The filter's bounds window grid position ``position``, which has
    ``count`` partitions.  An independent position (``base`` is -1) has one
    window, through its CDF's compiled partition function ``split``.  A
    conditional position has one window per partition of the grid position
    ``base`` (``base_count`` partitions) inside that position's window,
    through ``split[base partition]``.  A window is two bisects.  A mapped
    dimension first rewrites its bounds onto its target with ``mapping``;
    the rest of its role is the target's.
    """

    position: int
    count: int
    split: _Split | tuple[_Split, ...]
    base: int = -1
    base_count: int = 1
    mapping: BoundedLinearModel | OutlierBoundedMapping | None = None


class QueryTerms(NamedTuple):
    """What planning reads from one query, taken once for every region it visits.

    ``prefix`` starts the plan-cache key: the query type and the sorted
    filtered dimensions.  ``filtered`` holds the filtered dimensions in
    predicate order, and ``bounds`` each predicate's dimension with its
    bounds as floats.
    """

    prefix: tuple
    filtered: tuple[str, ...]
    bounds: tuple[tuple[str, float, float], ...]

    @classmethod
    def of(cls, query: Query) -> "QueryTerms":
        predicates = query.predicates
        filtered = tuple([p.dimension for p in predicates])
        return cls(
            (query.query_type, tuple(sorted(filtered))),
            filtered,
            tuple([(p.dimension, float(p.low), float(p.high)) for p in predicates]),
        )


class _Plan:
    """A plan-cache entry: one query's relative spans and the row ranges last handed out.

    ``placed`` is ``(offset, ranges)``: the spans as row ranges shifted by
    the region's row offset.  They are rebuilt only when the
    offset changes, which a local merge does when it moves the region.
    Pickles keep only the spans.
    """

    __slots__ = ("spans", "placed")

    def __init__(self, spans: list[tuple[int, int, bool]]) -> None:
        self.spans = spans
        self.placed: tuple[int, tuple[RowRange, ...]] = (-1, ())

    def __reduce__(self):
        return _Plan, (self.spans,)

    def place(self, offset: int) -> tuple[RowRange, ...]:
        """The spans shifted by ``offset``, kept as :attr:`placed`."""
        ranges = tuple(RowRange(offset + start, offset + stop, exact=exact) for start, stop, exact in self.spans)
        self.placed = (offset, ranges)
        return ranges


class AugmentedGrid:
    """A fitted Augmented Grid over one region's rows.

    ``plan_cache`` optionally memoizes planned spans under the
    query's type and quantized (partition-window) bounds so skewed workloads
    reuse plans instead of re-planning.  The cache is cleared by :meth:`fit`
    because spans are offsets into the clustered row order.  An entry also
    keeps the row ranges it last handed out (:class:`_Plan`).

    A fitted grid keeps a role table (:class:`_Role` per skeleton dimension
    whose filter windows a position with more than one partition).  It is
    derived from the fitted models, so snapshots leave it out and rebuild
    it on load.  A snapshot whose plan cache holds bare span lists (as
    older ones do) loads with them wrapped as entries.
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
        if self.plan_cache is not None:
            self.plan_cache.map_plans(lambda plan: plan if isinstance(plan, _Plan) else _Plan(plan))

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
                roles[dim] = _Role(position, count, self._cdf_models[dim].partitioning(count)[:2])
                continue
            model = self._conditional_models[dim]
            base_count = self.config.partitions[strategy.base]
            roles[dim] = _Role(
                position,
                count,
                tuple(model.model_for(part).partitioning(count)[:2] for part in range(base_count)),
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

    def _bounds(self, terms: QueryTerms) -> dict[int, tuple[_Role, float, float]]:
        """The query's filter bounds per windowed grid position, through the role table.

        Only the query's own predicates are read.  A filter on a mapped
        dimension is rewritten (via the mapping's error bounds) into a
        covering range over its target and intersected with any direct
        filter on the target.  Each entry keeps the position's role beside
        its ``(low, high)``.
        """
        bounds: dict[int, tuple[_Role, float, float]] = {}
        roles = self._roles
        for dim, low, high in terms.bounds:
            role = roles.get(dim)
            if role is None:
                continue
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
        A window is the partitions of its two bounds, two bisects in the
        position's compiled partition function.  Every unbounded position's
        windows are full, so the filtered dimensions plus these windows fix
        the plan: appended to ``key`` as plain ints, they make the lossless
        plan-cache key.
        """
        windows: dict = {}
        for position in sorted(bounds):
            role, low, high = bounds[position]
            if role.base < 0:
                if high < low:
                    window = (1, 0)
                else:
                    breaks, ids = role.split
                    window = (ids[bisect_right(breaks, low)], ids[bisect_right(breaks, high)])
                key += window
            else:
                base_first, base_last = windows.get(role.base, (0, role.base_count - 1))
                splits = role.split[base_first : base_last + 1]
                if high < low:
                    window = [(1, 0)] * len(splits)
                else:
                    window = [
                        (ids[bisect_right(breaks, low)], ids[bisect_right(breaks, high)])
                        for breaks, ids in splits
                    ]
                for pair in window:
                    key += pair
            windows[position] = window
        return windows

    def _expand(self, windows: dict, filtered: Sequence[str]) -> list[tuple[int, int, bool]]:
        """Coalesced ``(start, stop, exact)`` row spans from one query's :meth:`_windows`.

        ``filtered`` names the query's filtered dimensions.  Only the grid
        positions up to the last one the query bounds or filters are walked:
        below it, each prefix's cells are one contiguous block per partition.
        The outer positions are walked prefix by prefix in cell order (a
        conditional position reads the window of the prefix's base
        partition), and a prefix whose cells hold no row is dropped.  The
        innermost walked position yields at most three spans per prefix:
        the two boundary blocks and the exact interior run.  Row-contiguous
        spans that agree on exactness coalesce, so the spans equal per-cell
        recursive enumeration's.
        """
        assert self._offsets is not None
        # A zero-copy view of the lookup table whose reads are Python ints.
        offsets = memoryview(self._offsets)
        dims = self.grid_dimensions
        strides = self._strides
        partitions = self.config.partitions
        # A position with one partition never branches, so the walk skips
        # it.  A filter on it (or on a dimension outside the grid) leaves no
        # partition strictly inside its window: no span can be exact.
        exact = all(dim in strides and partitions[dim] > 1 for dim in filtered)
        depth = 0
        for position, dim in enumerate(dims):
            if position in windows or (dim in filtered and partitions[dim] > 1):
                depth = position + 1
        if not depth:
            # Nothing is restricted: the one span is every row.
            stop = offsets[-1]
            return [(0, stop, exact)] if stop else []
        # (first cell, exact) per prefix of the positions walked so far.
        prefixes = [(0, exact)]
        for position in range(depth - 1):
            dim = dims[position]
            if partitions[dim] == 1:
                continue
            stride = strides[dim]
            narrows = dim in filtered
            grown = []
            for (cell, exact), (first, last) in zip(prefixes, self._prefix_windows(position, windows, prefixes)):
                for part in range(first, last + 1):
                    child = cell + part * stride
                    if offsets[child] != offsets[child + stride]:
                        # Only a partition strictly inside the window of a
                        # filtered dimension keeps exactness; a boundary
                        # partition may straddle the filter edge.
                        grown.append((child, exact and (not narrows or first < part < last)))
            prefixes = grown

        # Cells [cell + first * block, cell + (last + 1) * block) are one
        # contiguous physical run.  A prefix whose exactness survived emits
        # its two boundary blocks inexactly and the interior exactly; any
        # other prefix is a single span.
        innermost = dims[depth - 1]
        block = strides[innermost]
        narrows = innermost in filtered
        spans: list[tuple[int, int, bool]] = []
        for (cell, exact), (first, last) in zip(prefixes, self._prefix_windows(depth - 1, windows, prefixes)):
            if first > last:
                continue
            low, high = cell + first * block, cell + (last + 1) * block
            if not (exact and narrows):
                pieces = ((low, high, exact),)
            elif first == last:
                pieces = ((low, high, False),)
            else:
                pieces = ((low, low + block, False), (low + block, high - block, True), (high - block, high, False))
            for low_cell, high_cell, flag in pieces:
                start, stop = offsets[low_cell], offsets[high_cell]
                if start >= stop:
                    continue
                if spans and spans[-1][1] == start and spans[-1][2] == flag:
                    spans[-1] = (spans[-1][0], stop, flag)
                else:
                    spans.append((start, stop, flag))
        return spans

    def _prefix_windows(self, position: int, windows: dict, prefixes: list) -> list[tuple[int, int]]:
        """Each prefix's ``(first, last)`` window at grid ``position``.

        An unbounded position's window is full; a conditional one is read
        from the prefix's base partition, which the prefix's first cell
        encodes in mixed radix.
        """
        dim = self.grid_dimensions[position]
        window = windows.get(position, (0, self.config.partitions[dim] - 1))
        if not isinstance(window, list):
            return [window] * len(prefixes)
        base = self._roles[dim].base
        base_dim = self.grid_dimensions[base]
        base_stride, base_count = self._strides[base_dim], self.config.partitions[base_dim]
        base_first = windows[base][0] if base in windows else 0
        return [window[cell // base_stride % base_count - base_first] for cell, _ in prefixes]

    def _plan(self, terms: QueryTerms) -> _Plan:
        """The plan of one query's :class:`QueryTerms`: its relative row spans.

        The query's bounds are read through the role table into the
        windows of its bounded positions, which also make the plan-cache
        key after the terms' prefix; a miss expands the spans from those
        same windows.
        """
        self._require_fitted()
        key = list(terms.prefix)
        windows = self._windows(self._bounds(terms), key)
        key = tuple(key)
        cache = self.plan_cache
        plan = None if cache is None else cache.get(key)
        if plan is None:
            plan = _Plan(self._expand(windows, terms.filtered))
            if cache is not None:
                cache.put(key, plan)
        return plan

    def plan(self, query: Query) -> tuple[list[tuple[int, int, bool]], QueryPlanFeatures]:
        """Plan ``query``: relative row ranges plus cost-model features."""
        spans = self._plan(QueryTerms.of(query)).spans
        features = QueryPlanFeatures(
            num_cell_ranges=len(spans),
            points_scanned=sum(stop - start for start, stop, _ in spans),
            num_filtered_dimensions=query.num_filtered_dimensions,
        )
        return spans, features

    def plan_counts(self, queries: Sequence[Query]) -> tuple[np.ndarray, np.ndarray]:
        """Per-query ``(num_cell_ranges, points_scanned)`` of a list of queries.

        The numbers equal what :meth:`plan` reports for each query: each
        query's windows and spans come from the same :meth:`_windows` and
        :meth:`_expand`, but no plan cache is read or filled and only the
        counts are kept.  The optimizer scores each candidate configuration
        with one call.
        """
        self._require_fitted()
        num_ranges, points = [], []
        for query in queries:
            terms = QueryTerms.of(query)
            spans = self._expand(self._windows(self._bounds(terms), []), terms.filtered)
            num_ranges.append(len(spans))
            points.append(sum(stop - start for start, stop, _ in spans))
        return np.array(num_ranges, dtype=np.int64), np.array(points, dtype=np.int64)

    def ranges_for_query(
        self, query: Query, offset: int = 0, terms: QueryTerms | None = None
    ) -> tuple[RowRange, ...]:
        """Physical row ranges for ``query``, shifted by the region's ``offset``.

        A caller that plans one query in many regions passes its
        ``QueryTerms.of(query)`` as ``terms``.  A cached plan hands out the
        same ranges until the offset changes.
        """
        plan = self._plan(QueryTerms.of(query) if terms is None else terms)
        placed, ranges = plan.placed
        return ranges if placed == offset else plan.place(offset)

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
