"""Dataset and workload generators standing in for the paper's evaluation data.

The paper evaluates on three real datasets (NYC Taxi, a university performance
monitoring log, daily stock prices) plus TPC-H lineitem, each with a
synthesized workload of several query *types* that display skew over time and
other dimensions (§6.2).  The real datasets are not redistributable, so this
subpackage generates synthetic stand-ins that reproduce the documented
schemas, correlations, and workload skew at configurable scale — the
statistics the index structures actually respond to (see §6.2 of the
paper PAPER.md names, and each generator's own docstring).

``load_dataset(name, ...)`` is the registry entry point used by the examples
and benchmarks.
"""

from repro.datasets.synthetic import (
    make_uniform_dataset,
    make_correlated_dataset,
    synthetic_templates,
    synthetic_scaling_workload,
)
from repro.datasets.workload_gen import (
    RangeSpec,
    EqualitySpec,
    QueryTemplate,
    generate_workload,
)
from repro.datasets.tpch import make_tpch_dataset, tpch_templates, tpch_shifted_templates
from repro.datasets.taxi import make_taxi_dataset, taxi_templates
from repro.datasets.perfmon import make_perfmon_dataset, perfmon_templates
from repro.datasets.stocks import make_stocks_dataset, stocks_templates
from repro.datasets.registry import DATASETS, load_dataset

__all__ = [
    "make_uniform_dataset",
    "make_correlated_dataset",
    "synthetic_templates",
    "synthetic_scaling_workload",
    "RangeSpec",
    "EqualitySpec",
    "QueryTemplate",
    "generate_workload",
    "make_tpch_dataset",
    "tpch_templates",
    "tpch_shifted_templates",
    "make_taxi_dataset",
    "taxi_templates",
    "make_perfmon_dataset",
    "perfmon_templates",
    "make_stocks_dataset",
    "stocks_templates",
    "DATASETS",
    "load_dataset",
]
