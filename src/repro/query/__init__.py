"""Query model: predicates, aggregations, queries, and workloads.

Queries in the paper are conjunctive range/equality filters over a subset of
dimensions combined with a single aggregation (§2).  This subpackage defines
the in-memory representation used throughout the library, plus the
:class:`~repro.query.workload.Workload` container that generators produce and
indexes optimize against.
"""

from repro.query.predicates import Predicate, RangePredicate, EqualityPredicate
from repro.query.query import Query, AGGREGATES
from repro.query.workload import Workload, WorkloadStatistics
from repro.query.selectivity import query_selectivity, selectivity_vector
from repro.query.engine import execute_full_scan
from repro.query.sql import parse_query, parse_statement, execute_sql
from repro.query.profile import WorkloadProfile, DimensionProfile

__all__ = [
    "Predicate",
    "RangePredicate",
    "EqualityPredicate",
    "Query",
    "AGGREGATES",
    "Workload",
    "WorkloadStatistics",
    "query_selectivity",
    "selectivity_vector",
    "execute_full_scan",
    "parse_query",
    "parse_statement",
    "execute_sql",
    "WorkloadProfile",
    "DimensionProfile",
]
