"""The per-query candidate evaluation, kept as the differential oracle.

:meth:`~repro.core.optimizer.ConfigurationEvaluator.features_for` plans the
whole sample workload on a candidate's sample grid in one
:meth:`~repro.core.augmented_grid.AugmentedGrid.plan_counts` call, on a grid
fitted without its clustering permutation.  This module is the loop it
replaced: fit the grid with its clustering permutation, then plan the
queries one at a time through
:meth:`~repro.core.augmented_grid.AugmentedGrid.plan`.  The two must agree
feature for feature, so every optimizer decision is the same.
"""

from __future__ import annotations

from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.cost_model import QueryPlanFeatures
from repro.core.optimizer import ConfigurationEvaluator
from repro.core.skeleton import Skeleton


def reference_features(
    evaluator: ConfigurationEvaluator,
    skeleton: Skeleton,
    partitions: dict[str, int],
    model_cache: dict | None = None,
) -> list[QueryPlanFeatures]:
    """Per-query planned features of ``evaluator``'s queries, scaled to the table.

    Without a ``model_cache`` every call fits its models from scratch, so
    nothing is shared with the evaluator under test.
    """
    config = AugmentedGridConfig(
        skeleton=skeleton, partitions=dict(partitions), max_cells=evaluator.max_cells
    )
    grid = AugmentedGrid(config)
    grid.fit(evaluator.sample, model_cache=model_cache)
    features = []
    for query in evaluator.queries:
        _, raw = grid.plan(query)
        features.append(
            QueryPlanFeatures(
                num_cell_ranges=raw.num_cell_ranges,
                points_scanned=int(round(raw.points_scanned * evaluator.scale)),
                num_filtered_dimensions=raw.num_filtered_dimensions,
            )
        )
    return features
