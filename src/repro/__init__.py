"""Reproduction of "Tsunami: A Learned Multi-dimensional Index for Correlated
Data and Skewed Workloads" (Ding, Nathan, Alizadeh, Kraska — VLDB 2020).

The public API re-exported here is what the examples and benchmarks use:

* Storage: :class:`~repro.storage.table.Table` — the in-memory clustered column store.
* Queries: :class:`~repro.query.query.Query`, :class:`~repro.query.workload.Workload`.
* The paper's contribution: :class:`~repro.core.tsunami.TsunamiIndex`.
* Baselines: Flood and the non-learned indexes from §6.1.
* Dataset and workload generators standing in for the paper's evaluation data.
* Serving: :class:`~repro.serve.frontend.ServingFrontend` — the concurrent
  micro-batching front-end with its result cache.
* Fault tolerance: the typed error hierarchy, the deterministic
  fault-injection harness (:class:`~repro.common.faults.FaultPlan`), and the
  resilience primitives (:class:`~repro.common.resilience.FaultPolicy`,
  :class:`~repro.common.resilience.CircuitBreaker`,
  :class:`~repro.common.resilience.RetryPolicy`) the sharded fan-out and the
  serving front-end are guarded by.
"""

from repro.common import (
    ReproError,
    SchemaError,
    QueryError,
    ConfigError,
    IndexBuildError,
    OptimizationError,
    ServingError,
    ServerOverloadedError,
    ServerClosedError,
    QueryTimeoutError,
    ShardTimeoutError,
    CircuitOpenError,
    PartialResultError,
    DispatcherCrashedError,
    InjectedFault,
    FaultPlan,
    FaultSpec,
    CircuitBreaker,
    FaultPolicy,
    RetryPolicy,
)
from repro.storage import (
    Table,
    Column,
    save_table,
    load_table,
    save_index,
    load_index,
    read_csv,
    write_csv,
)
from repro.query import Query, Workload, execute_full_scan, parse_query, execute_sql
from repro.core import (
    TsunamiIndex,
    TsunamiConfig,
    AugmentedGrid,
    AugmentedGridConfig,
    GridTree,
    GridTreeConfig,
    Skeleton,
    CostModel,
    WorkloadDriftDetector,
    OutlierBoundedMapping,
    CategoricalReordering,
    DeltaBuffer,
    DeltaBufferedIndex,
    IncrementalReoptimizer,
    LifecycleManager,
    LifecycleReport,
    ShardedIndex,
)
from repro.baselines import (
    FullScanIndex,
    SingleDimensionIndex,
    ZOrderIndex,
    KdTreeIndex,
    HyperOctreeIndex,
    GridFileIndex,
    RTreeIndex,
    FloodIndex,
)
from repro.serve import (
    MicroBatcher,
    ResultCache,
    ServingConfig,
    ServingFrontend,
)

__version__ = "1.5.0"

__all__ = [
    "ReproError",
    "SchemaError",
    "QueryError",
    "ConfigError",
    "IndexBuildError",
    "OptimizationError",
    "ServingError",
    "ServerOverloadedError",
    "ServerClosedError",
    "QueryTimeoutError",
    "ShardTimeoutError",
    "CircuitOpenError",
    "PartialResultError",
    "DispatcherCrashedError",
    "InjectedFault",
    "FaultPlan",
    "FaultSpec",
    "CircuitBreaker",
    "FaultPolicy",
    "RetryPolicy",
    "Table",
    "Column",
    "save_table",
    "load_table",
    "save_index",
    "load_index",
    "read_csv",
    "write_csv",
    "Query",
    "Workload",
    "execute_full_scan",
    "parse_query",
    "execute_sql",
    "TsunamiIndex",
    "TsunamiConfig",
    "AugmentedGrid",
    "AugmentedGridConfig",
    "GridTree",
    "GridTreeConfig",
    "Skeleton",
    "CostModel",
    "WorkloadDriftDetector",
    "OutlierBoundedMapping",
    "CategoricalReordering",
    "DeltaBuffer",
    "DeltaBufferedIndex",
    "IncrementalReoptimizer",
    "LifecycleManager",
    "LifecycleReport",
    "ShardedIndex",
    "FullScanIndex",
    "SingleDimensionIndex",
    "ZOrderIndex",
    "KdTreeIndex",
    "HyperOctreeIndex",
    "GridFileIndex",
    "RTreeIndex",
    "FloodIndex",
    "MicroBatcher",
    "ResultCache",
    "ServingConfig",
    "ServingFrontend",
    "__version__",
]
