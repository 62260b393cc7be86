"""Shared fixtures for the test suite.

Fixtures are deliberately small (thousands of rows, dozens of queries) so the
whole suite runs in well under a minute; the benchmarks directory is where
larger scales live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common import faults
from repro.core import tsunami
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.table import Table


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A session-wide deterministic RNG for ad-hoc test data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def small_agd_sample():
    """Tsunami's AGD samples 2,000 rows for a whole module, so builds,
    merges and repairs on the 5,000-row tables stay fast.  Module-scoped,
    so a module's own index fixtures see it too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tsunami, "OPTIMIZER_SAMPLE_ROWS", 2_000)
        yield


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Fault injection never leaks across tests, even when one fails mid-plan."""
    yield
    faults.uninstall()


def _make_correlated_table(num_rows: int, seed: int) -> Table:
    generator = np.random.default_rng(seed)
    x = generator.integers(0, 10_000, num_rows)
    # y is tightly linearly correlated with x; z is independent; c is categorical.
    y = x * 3 + generator.integers(-50, 51, num_rows)
    z = generator.integers(0, 1_000, num_rows)
    c = generator.integers(0, 8, num_rows)
    return Table.from_arrays("corr", {"x": x, "y": y, "z": z, "c": c})


@pytest.fixture(scope="session")
def small_table() -> Table:
    """A 5k-row table with one tight correlation and one categorical column."""
    return _make_correlated_table(5_000, seed=7)


@pytest.fixture()
def fresh_table() -> Table:
    """A per-test copy of the small table (safe to reorder destructively)."""
    return _make_correlated_table(5_000, seed=7)


@pytest.fixture(scope="session")
def skewed_workload(small_table: Table) -> Workload:
    """A two-type skewed workload over the small table.

    Type 0 filters x tightly in the upper part of the domain plus z broadly;
    type 1 filters y (the correlated dimension) in the lower part of the
    domain.  This mirrors the running example of Fig. 2.
    """
    generator = np.random.default_rng(99)
    queries = []
    for _ in range(40):
        low = int(generator.integers(7_000, 9_500))
        queries.append(
            Query.from_ranges({"x": (low, low + 300), "z": (0, 400)}, query_type=0)
        )
    for _ in range(40):
        low = int(generator.integers(0, 8_000))
        queries.append(Query.from_ranges({"y": (low, low + 900)}, query_type=1))
    return Workload(queries, name="skewed")


@pytest.fixture()
def fresh_workload(skewed_workload: Workload) -> Workload:
    """A per-test workload identical to ``skewed_workload``."""
    return Workload(skewed_workload.queries, name="skewed")
