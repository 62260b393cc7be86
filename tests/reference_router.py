"""The per-query Grid Tree router, kept as the differential oracle.

:meth:`~repro.core.grid_tree.GridTree.regions_for_queries` routes a whole
batch in one tree descent.  This module is the per-query descent it
replaced; the two must return the same regions in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid_tree import GridTree, GridTreeNode
from repro.query.query import Query


def regions_for_query(tree: GridTree, query: Query) -> list[GridTreeNode]:
    """All leaf regions whose extent intersects the query rectangle."""
    root = tree._require_fitted()
    result: list[GridTreeNode] = []

    def descend(node: GridTreeNode) -> None:
        if node.is_leaf:
            result.append(node)
            return
        predicate = query.predicate_for(node.split_dimension)
        # Edge children are open-ended: assign_regions routes every value
        # below the first split (or at/above the last) into the edge
        # leaves, so after local merges absorb out-of-domain inserts the
        # query side must reach those leaves too.
        boundaries = [-np.inf, *node.split_values, np.inf]
        for index, child in enumerate(node.children):
            child_low, child_high = boundaries[index], boundaries[index + 1]
            if predicate is None or (
                predicate.high >= child_low and predicate.low < child_high
            ):
                descend(child)

    descend(root)
    return result
