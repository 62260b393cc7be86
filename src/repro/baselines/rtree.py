"""Bulk-loaded R-tree baseline (Beckmann et al. [3], discussed in §6.1 and §7).

The paper's headline comparison omits the R*-tree because Flood already showed
consistent superiority over it, but commercial systems (e.g. IBM Informix,
§7) still rely on R-trees for multi-dimensional data, so the extended
benchmarks in this repository include one.

The implementation is a clustered, read-only R-tree built with the classic
Sort-Tile-Recursive (STR) bulk-loading algorithm: rows are recursively sorted
and tiled one dimension at a time until each tile fits in a leaf of
``page_size`` rows, leaves are stored contiguously (so each is one cell range
at query time), and internal nodes of fan-out ``FANOUT`` store the minimum
bounding rectangle (MBR) of their subtree.  Queries descend from the root,
pruning subtrees whose MBR does not intersect the query rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import ClusteredIndex, containment_exactness
from repro.common.errors import IndexBuildError
from repro.query.query import Query
from repro.query.selectivity import average_dimension_selectivity
from repro.query.workload import Workload
from repro.storage.scan import RowRange
from repro.storage.table import Table

#: R-trees degrade sharply with dimensionality; only the most selective
#: workload dimensions participate in the STR tiling and the MBRs.
MAX_INDEXED_DIMENSIONS = 6
#: Children per internal node.
FANOUT = 16


@dataclass
class _RTreeNode:
    """One R-tree node: an MBR plus either child nodes or a leaf row range."""

    bounds: dict[str, tuple[int, int]]
    children: list["_RTreeNode"] = field(default_factory=list)
    row_start: int = -1
    row_stop: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTreeIndex(ClusteredIndex):
    """STR bulk-loaded, clustered R-tree over the workload's filtered dimensions."""

    name = "r-tree"

    def __init__(self, page_size: int = 2048, dimensions: list[str] | None = None) -> None:
        super().__init__()
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.page_size = page_size
        self._requested_dimensions = dimensions
        self.dimensions: list[str] = []
        self._root: _RTreeNode | None = None
        self._num_leaves = 0
        self._num_nodes = 0
        self._height = 0

    # -- build -----------------------------------------------------------------------

    def _optimize(self, table: Table, workload: Workload | None) -> None:
        """Choose the indexing dimensions (most selective workload dimensions first)."""
        if self._requested_dimensions is not None:
            self.dimensions = list(self._requested_dimensions)[:MAX_INDEXED_DIMENSIONS]
            if not self.dimensions:
                raise IndexBuildError("R-tree needs at least one dimension to index")
            return
        candidates = list(table.column_names)
        if workload is None or len(workload) == 0:
            self.dimensions = candidates[:MAX_INDEXED_DIMENSIONS]
            return
        sample = table
        if table.num_rows > 20_000:
            sample = table.sample_rows(20_000, np.random.default_rng(17))
        filtered = [d for d in workload.filtered_dimensions() if d in candidates]
        filtered.sort(
            key=lambda dim: average_dimension_selectivity(sample, workload.queries, dim)
        )
        self.dimensions = (filtered or candidates)[:MAX_INDEXED_DIMENSIONS]

    def _str_tiles(self, table: Table, row_ids: np.ndarray, depth: int) -> list[np.ndarray]:
        """Recursively sort-tile ``row_ids`` into leaves of at most ``page_size`` rows."""
        if len(row_ids) <= self.page_size:
            return [row_ids]
        dim = self.dimensions[depth % len(self.dimensions)]
        order = np.argsort(table.values(dim)[row_ids], kind="stable")
        ordered = row_ids[order]
        num_tiles = int(np.ceil(len(ordered) / self.page_size))
        # Tile count per slab follows STR: ceil(num_tiles ** (1/remaining dims)),
        # approximated here by splitting into sqrt-many slabs per level.
        slabs = max(2, int(np.ceil(np.sqrt(num_tiles))))
        slab_size = int(np.ceil(len(ordered) / slabs))
        tiles: list[np.ndarray] = []
        for start in range(0, len(ordered), slab_size):
            slab = ordered[start : start + slab_size]
            tiles.extend(self._str_tiles(table, slab, depth + 1))
        return tiles

    def _leaf_bounds(self, table: Table, row_ids: np.ndarray) -> dict[str, tuple[int, int]]:
        return {
            dim: (
                int(table.values(dim)[row_ids].min()),
                int(table.values(dim)[row_ids].max()),
            )
            for dim in self.dimensions
        }

    @staticmethod
    def _merge_bounds(children: list[_RTreeNode]) -> dict[str, tuple[int, int]]:
        merged: dict[str, tuple[int, int]] = {}
        for child in children:
            for dim, (low, high) in child.bounds.items():
                if dim in merged:
                    existing_low, existing_high = merged[dim]
                    merged[dim] = (min(existing_low, low), max(existing_high, high))
                else:
                    merged[dim] = (low, high)
        return merged

    def _layout_permutation(self, table: Table) -> np.ndarray | None:
        all_rows = np.arange(table.num_rows)
        tiles = self._str_tiles(table, all_rows, depth=0)

        leaves: list[_RTreeNode] = []
        offset = 0
        for tile in tiles:
            node = _RTreeNode(bounds=self._leaf_bounds(table, tile))
            node.row_start = offset
            node.row_stop = offset + len(tile)
            offset += len(tile)
            leaves.append(node)
        self._num_leaves = len(leaves)
        self._num_nodes = len(leaves)
        self._height = 1

        # Pack nodes bottom-up into parents of ``FANOUT`` children.
        level = leaves
        while len(level) > 1:
            parents: list[_RTreeNode] = []
            for start in range(0, len(level), FANOUT):
                children = level[start : start + FANOUT]
                parents.append(_RTreeNode(bounds=self._merge_bounds(children), children=children))
            self._num_nodes += len(parents)
            self._height += 1
            level = parents
        self._root = level[0]
        return np.concatenate(tiles) if tiles else None

    # -- query -----------------------------------------------------------------------

    def _collect(self, node: _RTreeNode, query: Query, out: list[RowRange]) -> None:
        if not query.intersects_box(node.bounds):
            return
        if node.is_leaf:
            out.append(
                RowRange(
                    node.row_start,
                    node.row_stop,
                    exact=containment_exactness(node.bounds, query),
                )
            )
            return
        for child in node.children:
            self._collect(child, query, out)

    def _ranges_for_query(self, query: Query) -> list[RowRange]:
        if self._root is None:
            raise IndexBuildError("R-tree has not been built")
        ranges: list[RowRange] = []
        self._collect(self._root, query, ranges)
        return ranges

    # -- reporting --------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels from root to leaves (1 for a single-leaf tree)."""
        return self._height

    def index_size_bytes(self) -> int:
        """Every node stores one MBR (two ints per indexed dimension) plus pointers."""
        per_node = 16 * len(self.dimensions) + 8 * FANOUT
        return self._num_nodes * per_node

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "page_size": self.page_size,
                "fanout": FANOUT,
                "dimensions": list(self.dimensions),
                "num_nodes": self._num_nodes,
                "num_leaves": self._num_leaves,
                "height": self.height,
            }
        )
        return info
