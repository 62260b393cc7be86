"""Tsunami's core contribution: Grid Tree, Augmented Grid, and their optimizers.

The subpackage is organized to mirror the paper:

* :mod:`repro.core.skew` — query skew, the skew tree, and split selection (§4.2–4.3).
* :mod:`repro.core.query_types` — query-type clustering (§4.3.1).
* :mod:`repro.core.grid_tree` — the Grid Tree space-partitioning decision tree (§4).
* :mod:`repro.core.skeleton` — Augmented Grid skeletons and partitioning strategies (§5.2).
* :mod:`repro.core.augmented_grid` — the Augmented Grid itself (§5).
* :mod:`repro.core.cost_model` — the analytic query cost model (§5.3.1).
* :mod:`repro.core.optimizer` — Adaptive Gradient Descent and the alternatives
  compared in Fig. 12b (§5.3.2, §6.6).
* :mod:`repro.core.tsunami` — the end-to-end Tsunami index (§3).
* :mod:`repro.core.variants` — the ablation variants of Fig. 12a.

The extensions the paper sketches in §8 live here as well:

* :mod:`repro.core.drift` — workload-shift detection.
* :mod:`repro.core.outliers` — outlier-aware functional mappings.
* :mod:`repro.core.categorical` — co-access ordering of categorical dimensions.
* :mod:`repro.core.delta` — insert support via delta buffers.
* :mod:`repro.core.incremental` — incremental per-region re-optimization.
* :mod:`repro.core.lifecycle` — the serving loop tying inserts, drift
  detection, and incremental re-optimization together.
* :mod:`repro.core.sharding` — the scale-out serving layer fanning batches
  across independently optimized partitions.
"""

from repro.core.skeleton import (
    IndependentCDFStrategy,
    FunctionalMappingStrategy,
    ConditionalCDFStrategy,
    Skeleton,
)
from repro.core.cost_model import CostModel, QueryPlanFeatures
from repro.core.grid_tree import GridTree, GridTreeConfig
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.optimizer import (
    AdaptiveGradientDescent,
    GradientDescentOnly,
    BlackBoxOptimizer,
    OptimizerResult,
)
from repro.core.tsunami import TsunamiIndex, TsunamiConfig
from repro.core.drift import WorkloadDriftDetector, DriftReport
from repro.core.outliers import OutlierBoundedMapping
from repro.core.categorical import CategoricalReordering, co_access_counts
from repro.core.delta import DeltaBuffer, DeltaBufferedIndex, MergeReport
from repro.core.incremental import IncrementalReoptimizer, IncrementalReport, RegionShift
from repro.core.sharding import ShardedIndex, balanced_cuts, scaled_tsunami_config
from repro.core.lifecycle import LifecycleEvent, LifecycleManager, LifecycleReport

__all__ = [
    "IndependentCDFStrategy",
    "FunctionalMappingStrategy",
    "ConditionalCDFStrategy",
    "Skeleton",
    "CostModel",
    "QueryPlanFeatures",
    "GridTree",
    "GridTreeConfig",
    "AugmentedGrid",
    "AugmentedGridConfig",
    "AdaptiveGradientDescent",
    "GradientDescentOnly",
    "BlackBoxOptimizer",
    "OptimizerResult",
    "TsunamiIndex",
    "TsunamiConfig",
    "WorkloadDriftDetector",
    "DriftReport",
    "OutlierBoundedMapping",
    "CategoricalReordering",
    "co_access_counts",
    "DeltaBuffer",
    "DeltaBufferedIndex",
    "MergeReport",
    "IncrementalReoptimizer",
    "IncrementalReport",
    "RegionShift",
    "ShardedIndex",
    "balanced_cuts",
    "scaled_tsunami_config",
    "LifecycleEvent",
    "LifecycleManager",
    "LifecycleReport",
]
