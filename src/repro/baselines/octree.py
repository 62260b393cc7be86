"""Hyperoctree baseline (§6.1 baseline 3).

The hyperoctree recursively subdivides space equally into hyperoctants — the
d-dimensional analogue of quadrants — until each leaf holds at most ``page
size`` points.  In high dimensions a single split would create ``2^d``
children, which is impractical beyond a handful of dimensions, so each level
splits over a bounded subset of dimensions chosen round-robin by depth (a
standard engineering compromise; the paper's datasets have 7–9 dimensions,
where the full split is still feasible with the default bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import ClusteredIndex, containment_exactness
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: A level subdivides at most this many dimensions (``2^6`` children).
MAX_SPLIT_DIMENSIONS = 6
#: A node at this depth stays a leaf whatever its size.
MAX_DEPTH = 32


@dataclass
class _OctreeNode:
    """One node of the hyperoctree: either an internal split or a leaf row range."""

    bounds: dict[str, tuple[float, float]]
    children: list["_OctreeNode"] = field(default_factory=list)
    split_dimensions: list[str] = field(default_factory=list)
    row_start: int = -1
    row_stop: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HyperOctreeIndex(ClusteredIndex):
    """Equal-subdivision hyperoctree with a tunable page size."""

    name = "hyperoctree"

    def __init__(self, page_size: int = 4096) -> None:
        super().__init__()
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.page_size = page_size
        self.dimensions: list[str] = []
        self._root: _OctreeNode | None = None
        self._leaves: list[_OctreeNode] = []
        self._num_nodes = 0

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        if workload is not None and len(workload) > 0:
            filtered = list(workload.filtered_dimensions())
            others = [d for d in table.column_names if d not in filtered]
            self.dimensions = filtered + others
        else:
            self.dimensions = list(table.column_names)

    def _split_dims_for_depth(self, depth: int) -> list[str]:
        """Dimensions subdivided at this depth (rotating window over all dims)."""
        d = len(self.dimensions)
        width = min(d, MAX_SPLIT_DIMENSIONS)
        start = (depth * width) % d
        return [self.dimensions[(start + i) % d] for i in range(width)]

    def _build_node(
        self,
        table: Table,
        row_ids: np.ndarray,
        depth: int,
        bounds: dict[str, tuple[float, float]],
        leaf_order: list[np.ndarray],
    ) -> _OctreeNode:
        self._num_nodes += 1
        if len(row_ids) <= self.page_size or depth >= MAX_DEPTH:
            return self._make_leaf(bounds, row_ids, leaf_order)

        split_dims = self._split_dims_for_depth(depth)
        # Bucket rows into hyperoctants: one bit per split dimension.
        octant = np.zeros(len(row_ids), dtype=np.int64)
        midpoints = {}
        for bit, dim in enumerate(split_dims):
            low, high = bounds[dim]
            mid = (low + high) / 2.0
            midpoints[dim] = mid
            # ">= mid" keeps the child regions half-open ([low, mid) and
            # [mid, high)), consistent with the intersection test below.
            octant |= (table.values(dim)[row_ids] >= mid).astype(np.int64) << bit
        occupied = np.unique(octant)
        if len(occupied) <= 1:
            # Every point fell into one octant (e.g. constant values); splitting
            # again would recurse forever, so stop here.
            return self._make_leaf(bounds, row_ids, leaf_order)

        node = _OctreeNode(bounds=bounds, split_dimensions=split_dims)
        for child_id in range(1 << len(split_dims)):
            members = row_ids[octant == child_id]
            if len(members) == 0:
                continue
            child_bounds = dict(bounds)
            for bit, dim in enumerate(split_dims):
                low, high = bounds[dim]
                mid = midpoints[dim]
                child_bounds[dim] = (mid, high) if (child_id >> bit) & 1 else (low, mid)
            node.children.append(
                self._build_node(table, members, depth + 1, child_bounds, leaf_order)
            )
        return node

    def _make_leaf(
        self,
        bounds: dict[str, tuple[float, float]],
        row_ids: np.ndarray,
        leaf_order: list[np.ndarray],
    ) -> _OctreeNode:
        node = _OctreeNode(bounds=bounds)
        node.row_start = sum(len(chunk) for chunk in leaf_order)
        node.row_stop = node.row_start + len(row_ids)
        leaf_order.append(row_ids)
        self._leaves.append(node)
        return node

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        self._leaves = []
        self._num_nodes = 0
        bounds = {
            dim: (float(low), float(high) + 1.0)
            for dim, (low, high) in ((d, table.bounds(d)) for d in table.column_names)
        }
        leaf_order: list[np.ndarray] = []
        self._root = self._build_node(
            table, np.arange(table.num_rows), 0, bounds, leaf_order
        )
        return np.concatenate(leaf_order) if leaf_order else None

    # -- query -------------------------------------------------------------------

    def _node_intersects(self, node: _OctreeNode, query: Query) -> bool:
        for predicate in query.predicates:
            bounds = node.bounds.get(predicate.dimension)
            if bounds is None:
                continue
            low, high = bounds
            if high <= predicate.low or low > predicate.high:
                return False
        return True

    def _collect(self, node: _OctreeNode, query: Query, out: list[RowRange]) -> None:
        if not self._node_intersects(node, query):
            return
        if node.is_leaf:
            if node.row_stop > node.row_start:
                int_bounds = {
                    dim: (int(np.floor(low)), int(np.ceil(high)) - 1)
                    for dim, (low, high) in node.bounds.items()
                }
                exact = containment_exactness(int_bounds, query)
                out.append(RowRange(node.row_start, node.row_stop, exact=exact))
            return
        for child in node.children:
            self._collect(child, query, out)

    def _ranges_for_query(self, query: Query) -> list[RowRange]:
        assert self._root is not None
        ranges: list[RowRange] = []
        self._collect(self._root, query, ranges)
        return ranges

    # -- reporting -----------------------------------------------------------------

    def index_size_bytes(self) -> int:
        num_internal = self._num_nodes - len(self._leaves)
        internal_bytes = num_internal * (16 + 8 * (1 << min(MAX_SPLIT_DIMENSIONS, 6)))
        leaf_bytes = len(self._leaves) * (16 + 16 * len(self.dimensions))
        return internal_bytes + leaf_bytes

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "page_size": self.page_size,
                "num_nodes": self._num_nodes,
                "num_leaves": len(self._leaves),
            }
        )
        return info
