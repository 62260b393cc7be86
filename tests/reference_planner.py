"""The per-cell recursive query planner, kept as the differential oracle.

:class:`~repro.core.augmented_grid.AugmentedGrid` plans from partition
windows, walking only the outer grid prefixes that hold rows and emitting at
most three spans per prefix.  This module is the original planner it
replaced: it enumerates every intersecting cell recursively (respecting the
conditional-CDF dependency structure), then coalesces the cells' row ranges.
It computes every window itself from the fitted models (:func:`effective_bounds`,
:func:`partition_window`), not through the grid's role table.  The two must
agree span for span, flag for flag.
"""

from __future__ import annotations

from repro.core.augmented_grid import AugmentedGrid
from repro.core.skeleton import (
    ConditionalCDFStrategy,
    FunctionalMappingStrategy,
    IndependentCDFStrategy,
)
from repro.query.query import Query


def effective_bounds(grid: AugmentedGrid, query: Query) -> dict[str, tuple[float, float]]:
    """Per-grid-dimension filter bounds after applying functional mappings.

    A filter over a mapped dimension is rewritten (via the mapping's error
    bounds) into a covering range over its target dimension and intersected
    with any direct filter over the target.
    """
    bounds: dict[str, tuple[float, float]] = {}
    for dim in grid.grid_dimensions:
        predicate = query.predicate_for(dim)
        if predicate is not None:
            bounds[dim] = (float(predicate.low), float(predicate.high))
    for dim in grid.skeleton.mapped_dimensions:
        predicate = query.predicate_for(dim)
        if predicate is None:
            continue
        strategy = grid.skeleton.strategy_for(dim)
        assert isinstance(strategy, FunctionalMappingStrategy)
        mapped_low, mapped_high = grid._mapping_models[dim].map_range(
            float(predicate.low), float(predicate.high)
        )
        if strategy.target in bounds:
            existing_low, existing_high = bounds[strategy.target]
            bounds[strategy.target] = (
                max(existing_low, mapped_low),
                min(existing_high, mapped_high),
            )
        else:
            bounds[strategy.target] = (mapped_low, mapped_high)
    return bounds


def partition_window(
    grid: AugmentedGrid,
    dim: str,
    bounds: dict[str, tuple[float, float]],
    assignment: dict[str, int],
) -> tuple[int, int]:
    """Inclusive partition-id window of ``dim`` given bounds and base assignments."""
    num_partitions = grid.config.partitions[dim]
    if dim not in bounds or num_partitions == 1:
        return 0, num_partitions - 1
    low, high = bounds[dim]
    if high < low:
        return 1, 0  # empty window
    strategy = grid.skeleton.strategy_for(dim)
    if isinstance(strategy, IndependentCDFStrategy):
        return grid._cdf_models[dim].partition_range(low, high, num_partitions)
    assert isinstance(strategy, ConditionalCDFStrategy)
    base_partition = assignment[strategy.base]
    return grid._conditional_models[dim].partition_range(
        low, high, base_partition, num_partitions
    )


def window_table(grid: AugmentedGrid, query: Query) -> dict[str, object]:
    """Every grid dimension's window for ``query``: one ``(first, last)`` for an
    independent dimension, one per base partition in the base's window for a
    conditional one.  Two queries with equal tables and filtered dimensions
    have the same plan."""
    bounds = effective_bounds(grid, query)
    table: dict[str, object] = {}
    for dim in grid.grid_dimensions:
        strategy = grid.skeleton.strategy_for(dim)
        if isinstance(strategy, ConditionalCDFStrategy):
            first, last = table[strategy.base]
            table[dim] = tuple(
                partition_window(grid, dim, bounds, {strategy.base: part})
                for part in range(first, last + 1)
            )
        else:
            table[dim] = partition_window(grid, dim, bounds, {})
    return table


def enumerate_cells(grid: AugmentedGrid, query: Query) -> list[tuple[int, bool]]:
    """All ``(cell id, exact)`` pairs of cells intersecting ``query``."""
    bounds = effective_bounds(grid, query)
    filtered_dims = set(query.filtered_dimensions)
    # The exact-range optimization is only safe when every filtered dimension
    # is constrained by the grid itself (mapped dimensions are not: their
    # cells can contain rows outside the mapped filter).
    exactness_possible = filtered_dims.issubset(set(grid.grid_dimensions))
    hits: list[tuple[int, bool]] = []

    def recurse(position: int, cell_base: int, assignment: dict[str, int], exact: bool) -> None:
        if position == len(grid.grid_dimensions):
            hits.append((cell_base, exact))
            return
        dim = grid.grid_dimensions[position]
        first, last = partition_window(grid, dim, bounds, assignment)
        if first > last:
            return
        stride = grid._strides[dim]
        query_filters_dim = dim in filtered_dims
        for partition in range(first, last + 1):
            # A partition strictly inside the window only contains values
            # inside the filter range (CDF monotonicity), so it preserves
            # exactness; boundary partitions may straddle the filter edge.
            interior = first < partition < last
            child_exact = exact and (not query_filters_dim or interior)
            assignment[dim] = partition
            recurse(position + 1, cell_base + partition * stride, assignment, child_exact)
        del assignment[dim]

    recurse(0, 0, {}, exactness_possible)
    return hits


def reference_spans(grid: AugmentedGrid, query: Query) -> list[tuple[int, int, bool]]:
    """Coalesced relative row ranges ``(start, stop, exact)`` of ``query``."""
    offsets = grid._offsets
    assert offsets is not None, "the grid must be fitted"
    spans: list[tuple[int, int, bool]] = []
    for cell_id, exact in sorted(enumerate_cells(grid, query)):
        start = int(offsets[cell_id])
        stop = int(offsets[cell_id + 1])
        if stop <= start:
            continue
        if spans and spans[-1][1] == start and spans[-1][2] == exact:
            spans[-1] = (spans[-1][0], stop, exact)
        else:
            spans.append((start, stop, exact))
    return spans
