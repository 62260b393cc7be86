"""Statistical substrates: histograms, CDF models, EMD, correlation, clustering.

These are the building blocks the learned indexes are made of:

* CDF models map values to uniform partition ids (Flood §2.2, Augmented Grid §5.2).
* Query histograms and the Earth Mover's Distance define query skew (§4.2.1).
* The correlation tools fit functional mappings and decide between
  partitioning strategies (§5.2.1, §5.3.2 heuristics).
* DBSCAN clusters queries into query types (§4.3.1).
"""

from repro.stats.histogram import EquiWidthHistogram, query_histogram
from repro.stats.emd import earth_movers_distance, uniform_like
from repro.stats.cdf import EmpiricalCDF, HistogramCDF, ConditionalCDF
from repro.stats.correlation import (
    BoundedLinearModel,
    monotonic_correlation,
    empty_cell_fraction,
    correlation_report,
)
from repro.stats.clustering import dbscan

__all__ = [
    "EquiWidthHistogram",
    "query_histogram",
    "earth_movers_distance",
    "uniform_like",
    "EmpiricalCDF",
    "HistogramCDF",
    "ConditionalCDF",
    "BoundedLinearModel",
    "monotonic_correlation",
    "empty_cell_fraction",
    "correlation_report",
    "dbscan",
]
