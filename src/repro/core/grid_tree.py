"""The Grid Tree: a space-partitioning decision tree that reduces query skew (§4).

The Grid Tree divides the data space into non-overlapping regions such that
the query workload has little skew inside each region.  Unlike a k-d tree it
is built from the *query workload*, its internal nodes may split on more than
one value, and it is deliberately shallow and small (Table 4): its only job is
to remove inter-region skew so that a simple grid index per region works well.

Construction (§4.3) is greedy and recursive: at each node, every dimension is
evaluated with a skew tree (:mod:`repro.core.skew`) to find the split values
that remove the most combined query skew; the best dimension wins, unless the
reduction or the node's point/query share falls below fixed thresholds
(the module constants below), in which case the node becomes a leaf region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.common.errors import IndexBuildError
from repro.core.skew import SplitCandidate, evaluate_split_dimension
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table

#: A node whose best split removes less skew than this fraction of its
#: query count stays a leaf (§4.3.2).
MIN_SKEW_REDUCTION_FRACTION = 0.05
#: A node holding at most this fraction of the table's points stays a leaf.
MIN_POINTS_FRACTION = 0.01
#: A node intersected by at most this fraction of the workload stays a leaf.
MIN_QUERIES_FRACTION = 0.05
#: A dimension with at most this many distinct values gets one histogram
#: bin per value instead of equi-width bins.
MAX_UNIQUE_VALUES_FOR_EXACT_BINS = 128
#: A node at this depth stays a leaf (the paper's trees are at most 4 deep).
MAX_DEPTH = 4
#: A node splits into at most this many children.
MAX_CHILDREN = 6


@dataclass(frozen=True)
class GridTreeConfig:
    """The Grid Tree's region budget; its other limits are module constants."""

    max_regions: int = 48


@dataclass
class GridTreeNode:
    """One node of the Grid Tree.

    ``bounds`` is the node's data-space extent per dimension (half-open
    ``[low, high)`` in storage units).  Internal nodes carry a split dimension
    and split values; leaves carry a ``region_id``.
    """

    bounds: dict[str, tuple[float, float]]
    depth: int
    num_points: int
    num_queries: int
    split_dimension: str | None = None
    split_values: tuple[float, ...] = ()
    children: list["GridTreeNode"] = field(default_factory=list)
    region_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class GridTree:
    """A fitted Grid Tree over a table and a typed query workload."""

    def __init__(self, config: GridTreeConfig | None = None) -> None:
        self.config = config or GridTreeConfig()
        self.root: GridTreeNode | None = None
        self.leaves: list[GridTreeNode] = []
        self.num_nodes = 0
        self.depth = 0
        self._dimensions: list[str] = []

    # -- construction --------------------------------------------------------------

    def fit(self, table: Table, workload: Workload) -> "GridTree":
        """Build the tree from the full dataset and the (typed) sample workload."""
        if table.num_rows == 0:
            raise IndexBuildError("cannot build a Grid Tree over an empty table")
        self._dimensions = list(table.column_names)
        bounds = {}
        unique_values: dict[str, np.ndarray | None] = {}
        for dim in self._dimensions:
            low, high = table.bounds(dim)
            bounds[dim] = (float(low), float(high) + 1.0)
            values = table.values(dim)
            distinct = np.unique(values)
            if len(distinct) <= MAX_UNIQUE_VALUES_FOR_EXACT_BINS:
                unique_values[dim] = distinct.astype(np.float64)
            else:
                unique_values[dim] = None
        self._unique_values = unique_values

        self.leaves = []
        self.num_nodes = 0
        self.depth = 0
        total_points = table.num_rows
        total_queries = max(len(workload), 1)
        self.root = self._build_node(
            table=table,
            row_ids=np.arange(table.num_rows),
            queries=list(workload),
            bounds=bounds,
            depth=0,
            total_points=total_points,
            total_queries=total_queries,
        )
        return self

    def _queries_per_type_intervals(
        self, queries: list[Query], dimension: str, low: float, high: float
    ) -> dict[int, list[tuple[float, float]]]:
        """Per-type filter intervals over ``dimension``, restricted to queries filtering it."""
        per_type: dict[int, list[tuple[float, float]]] = {}
        for query in queries:
            predicate = query.predicate_for(dimension)
            if predicate is None:
                continue
            if predicate.high < low or predicate.low >= high:
                continue
            type_id = query.query_type if query.query_type is not None else 0
            per_type.setdefault(type_id, []).append(
                (float(predicate.low), float(predicate.high))
            )
        return per_type

    def _best_split(
        self, queries: list[Query], bounds: dict[str, tuple[float, float]]
    ) -> SplitCandidate | None:
        """Evaluate every dimension and return the candidate with the largest reduction."""
        best: SplitCandidate | None = None
        for dimension in self._dimensions:
            low, high = bounds[dimension]
            per_type = self._queries_per_type_intervals(queries, dimension, low, high)
            if not per_type:
                continue
            candidate = evaluate_split_dimension(
                dimension, per_type, low, high, unique_values=self._unique_values.get(dimension)
            )
            if not candidate.split_values:
                continue
            if best is None or candidate.skew_reduction > best.skew_reduction:
                best = candidate
        return best

    def _make_leaf(self, node: GridTreeNode) -> GridTreeNode:
        node.region_id = len(self.leaves)
        self.leaves.append(node)
        return node

    def _build_node(
        self,
        table: Table,
        row_ids: np.ndarray,
        queries: list[Query],
        bounds: dict[str, tuple[float, float]],
        depth: int,
        total_points: int,
        total_queries: int,
        reserved: int = 0,
    ) -> GridTreeNode:
        self.num_nodes += 1
        self.depth = max(self.depth, depth)
        node = GridTreeNode(
            bounds=bounds,
            depth=depth,
            num_points=len(row_ids),
            num_queries=len(queries),
        )

        # Stopping rules (§4.3.2): too deep, too few points, or too few queries.
        # ``max_regions`` is an additional engineering bound keeping the tree
        # lightweight at small data scales (see ROADMAP.md item 2, "The Grid
        # Tree at small scale").  ``reserved`` counts sibling/ancestor
        # subtrees still awaiting construction, each of which will produce at
        # least one leaf, so the budget check holds across the whole
        # depth-first build rather than only locally.
        if (
            depth >= MAX_DEPTH
            or len(self.leaves) + reserved + 1 > self.config.max_regions
            or len(row_ids) <= MIN_POINTS_FRACTION * total_points
            or len(queries) <= MIN_QUERIES_FRACTION * total_queries
        ):
            return self._make_leaf(node)

        candidate = self._best_split(queries, bounds)
        if candidate is None:
            return self._make_leaf(node)
        if candidate.skew_reduction < MIN_SKEW_REDUCTION_FRACTION * len(queries):
            return self._make_leaf(node)

        dimension = candidate.dimension
        low, high = bounds[dimension]
        split_values = list(candidate.split_values)
        # Keep the tree lightweight: a node may have at most ``MAX_CHILDREN``
        # children, so thin out excess split values evenly if needed.
        max_splits = max(1, MAX_CHILDREN - 1)
        if len(split_values) > max_splits:
            chosen = np.linspace(0, len(split_values) - 1, max_splits).round().astype(int)
            split_values = [split_values[i] for i in sorted(set(chosen.tolist()))]
        # Respect the region budget: splitting replaces this node's single
        # reserved leaf slot with one slot per child, so it is only allowed if
        # the finished leaves, the slots reserved by pending subtrees, and the
        # new children all fit within ``max_regions``.
        if len(self.leaves) + reserved + len(split_values) + 1 > self.config.max_regions:
            return self._make_leaf(node)
        boundaries = [low, *split_values, high]
        node.split_dimension = dimension
        node.split_values = tuple(split_values)

        values = table.values(dimension)[row_ids]
        num_children = len(boundaries) - 1
        for child_id in range(num_children):
            child_low, child_high = boundaries[child_id], boundaries[child_id + 1]
            child_bounds = dict(bounds)
            child_bounds[dimension] = (child_low, child_high)
            mask = (values >= child_low) & (values < child_high)
            child_rows = row_ids[mask]
            child_queries = [
                q
                for q in queries
                if self._query_intersects(q, dimension, child_low, child_high)
            ]
            child = self._build_node(
                table=table,
                row_ids=child_rows,
                queries=child_queries,
                bounds=child_bounds,
                depth=depth + 1,
                total_points=total_points,
                total_queries=total_queries,
                reserved=reserved + (num_children - 1 - child_id),
            )
            node.children.append(child)
        return node

    @staticmethod
    def _query_intersects(query: Query, dimension: str, low: float, high: float) -> bool:
        predicate = query.predicate_for(dimension)
        if predicate is None:
            return True
        return predicate.high >= low and predicate.low < high

    # -- usage ------------------------------------------------------------------------

    def _require_fitted(self) -> GridTreeNode:
        if self.root is None:
            raise IndexBuildError("GridTree has not been fitted")
        return self.root

    @property
    def num_regions(self) -> int:
        """Number of leaf regions."""
        return len(self.leaves)

    def assign_regions(self, table: Table) -> np.ndarray:
        """Region id of every row in ``table`` (vectorized tree traversal)."""
        root = self._require_fitted()
        region_ids = np.empty(table.num_rows, dtype=np.int64)

        def descend(node: GridTreeNode, row_ids: np.ndarray) -> None:
            if node.is_leaf:
                region_ids[row_ids] = node.region_id
                return
            values = table.values(node.split_dimension)[row_ids]
            child_index = np.searchsorted(
                np.asarray(node.split_values), values, side="right"
            )
            for index, child in enumerate(node.children):
                members = row_ids[child_index == index]
                if len(members):
                    descend(child, members)

        descend(root, np.arange(table.num_rows))
        return region_ids

    def regions_for_queries(self, queries: Sequence[Query]) -> list[list[GridTreeNode]]:
        """Intersecting leaf regions for every query, in one tree traversal.

        Each query's regions come in leaf order.  The tree is descended once
        with the whole batch: at each inner node the batch is split among the
        children, so shared prefixes of the traversal are paid once per batch
        instead of once per query.
        """
        root = self._require_fitted()
        result: list[list[GridTreeNode]] = [[] for _ in queries]

        def descend(node: GridTreeNode, members: list[int]) -> None:
            if node.is_leaf:
                for position in members:
                    result[position].append(node)
                return
            # Edge children are open-ended: assign_regions routes every value
            # below the first split (or at/above the last) into the edge
            # leaves, so after local merges absorb out-of-domain inserts the
            # query side must reach those leaves too.
            boundaries = [-np.inf, *node.split_values, np.inf]
            predicates = [
                (position, queries[position].predicate_for(node.split_dimension))
                for position in members
            ]
            for index, child in enumerate(node.children):
                child_low, child_high = boundaries[index], boundaries[index + 1]
                surviving = [
                    position
                    for position, predicate in predicates
                    if predicate is None
                    or (predicate.high >= child_low and predicate.low < child_high)
                ]
                if surviving:
                    descend(child, surviving)

        descend(root, list(range(len(queries))))
        return result

    def describe(self) -> dict:
        """Structural statistics reported in Table 4."""
        self._require_fitted()
        points = [leaf.num_points for leaf in self.leaves]
        return {
            "num_nodes": self.num_nodes,
            "depth": self.depth,
            "num_regions": self.num_regions,
            "min_points_per_region": int(min(points)) if points else 0,
            "median_points_per_region": float(np.median(points)) if points else 0.0,
            "max_points_per_region": int(max(points)) if points else 0,
        }

    def size_bytes(self) -> int:
        """Approximate footprint: split values plus child pointers per node."""
        total = 0

        def visit(node: GridTreeNode) -> None:
            nonlocal total
            total += 32 + 8 * len(node.split_values) + 8 * len(node.children)
            for child in node.children:
                visit(child)

        visit(self._require_fitted())
        return total
