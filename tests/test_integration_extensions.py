"""End-to-end scenarios combining the §8 extension modules.

Each test exercises a realistic operational pipeline rather than a single
module: drift detection feeding incremental re-optimization, categorical
reordering feeding index construction, the delta buffer combined with
persistence, and CSV ingestion feeding the SQL front-end.
"""

import numpy as np
import pytest

from repro.core.categorical import CategoricalReordering
from repro.core.delta import DeltaBufferedIndex
from repro.core.drift import WorkloadDriftDetector
from repro.core.incremental import IncrementalReoptimizer
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.query.sql import execute_sql, parse_query
from repro.query.workload import Workload
from repro.storage.csv_io import read_csv, write_csv
from repro.storage.persistence import load_index, save_index
from repro.storage.table import Table


pytestmark = pytest.mark.usefixtures("small_agd_sample")


def small_config() -> TsunamiConfig:
    return TsunamiConfig(optimizer_iterations=1)


def shifted_workload(seed: int = 31) -> Workload:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(50):
        low = int(rng.integers(0, 1_500))
        queries.append(Query.from_ranges({"x": (low, low + 150), "z": (600, 999)}, query_type=0))
    for _ in range(10):
        low = int(rng.integers(22_000, 28_000))
        queries.append(Query.from_ranges({"y": (low, low + 500)}, query_type=1))
    return Workload(queries, name="shifted")


class TestDriftThenIncrementalReopt:
    def test_detector_triggers_and_reopt_recovers_scan_work(self, fresh_table, fresh_workload):
        index = TsunamiIndex(small_config()).build(fresh_table, fresh_workload)
        detector = WorkloadDriftDetector().fit(index.table, fresh_workload)
        new_workload = shifted_workload()

        report = detector.observe(new_workload)
        assert report.drifted, "the shifted workload should be flagged as drift"

        _, before = index.execute_workload(new_workload)
        IncrementalReoptimizer(index, shift_threshold=0.02, max_regions=4).reoptimize(new_workload)
        _, after = index.execute_workload(new_workload)
        assert after.points_scanned <= before.points_scanned * 1.05
        for query in list(new_workload)[:15]:
            expected, _ = execute_full_scan(index.table, query)
            assert index.execute(query).value == expected

    def test_unchanged_workload_triggers_neither(self, fresh_table, fresh_workload):
        index = TsunamiIndex(small_config()).build(fresh_table, fresh_workload)
        detector = WorkloadDriftDetector().fit(index.table, fresh_workload)
        assert not detector.observe(fresh_workload).drifted
        report = IncrementalReoptimizer(index, shift_threshold=0.05).reoptimize(fresh_workload)
        assert report.regions_reoptimized == ()


class TestCategoricalReorderingWithIndex:
    @staticmethod
    def categorical_table(num_rows: int = 4_000, seed: int = 9) -> Table:
        rng = np.random.default_rng(seed)
        categories = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        return Table.from_dict(
            "events",
            {
                "kind": [categories[i] for i in rng.integers(0, len(categories), num_rows)],
                "day": rng.integers(0, 365, num_rows).tolist(),
                "value": rng.integers(0, 10_000, num_rows).tolist(),
            },
        )

    def test_index_over_reordered_table_stays_correct(self):
        table = self.categorical_table()
        alpha = table.column("kind").to_storage("alpha")
        foxtrot = table.column("kind").to_storage("foxtrot")
        rng = np.random.default_rng(3)
        queries = []
        for _ in range(40):
            day = int(rng.integers(250, 330))
            queries.append(
                Query.from_ranges(
                    {"kind": (min(alpha, foxtrot), max(alpha, foxtrot)), "day": (day, day + 30)},
                    query_type=0,
                )
            )
        workload = Workload(queries, name="events")

        reordering = CategoricalReordering.fit(table, "kind", workload)
        reordered_table = reordering.apply_to_table(table)
        rewritten = reordering.rewrite_workload(workload)
        index = TsunamiIndex(small_config()).build(reordered_table, rewritten)
        for original, query in zip(workload, rewritten):
            expected, _ = execute_full_scan(index.table, query)
            assert index.execute(query).value == expected
            # The rewritten range may widen, so it can only match at least as
            # many rows as the original predicate did on the original table.
            baseline, _ = execute_full_scan(table, original)
            assert index.execute(query).value >= baseline


class TestDeltaBufferWithPersistence:
    def test_insert_merge_snapshot_reload(self, tmp_path, fresh_table, fresh_workload):
        delta = DeltaBufferedIndex(
            lambda: TsunamiIndex(small_config()), merge_threshold=10_000
        )
        delta.build(fresh_table, fresh_workload)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = int(rng.integers(0, 10_000))
            delta.insert({"x": x, "y": 3 * x, "z": int(rng.integers(0, 1_000)), "c": 1})
        delta.merge()

        save_index(delta.base_index, tmp_path)
        restored = load_index(tmp_path)
        assert restored.table.num_rows == 5_000 + 25
        for query in list(fresh_workload)[:10]:
            expected, _ = execute_full_scan(restored.table, query)
            assert restored.execute(query).value == expected


class TestCsvToSqlPipeline:
    def test_csv_ingest_build_query_explain(self, tmp_path):
        rng = np.random.default_rng(17)
        source = Table.from_dict(
            "trips",
            {
                "day": rng.integers(0, 365, 3_000).tolist(),
                "distance": np.round(rng.uniform(0.5, 30.0, 3_000), 2).tolist(),
                "payment": [["card", "cash"][i] for i in rng.integers(0, 2, 3_000)],
            },
        )
        csv_path = write_csv(source, tmp_path / "trips.csv")
        table = read_csv(csv_path)
        index = TsunamiIndex(small_config()).build(table, None)

        sql = "SELECT COUNT(*) FROM trips WHERE day BETWEEN 300 AND 364 AND payment = 'card'"
        query = parse_query(sql, index.table)
        expected, _ = execute_full_scan(index.table, query)
        assert execute_sql(sql, index) == expected

        plan = index.explain(query)
        assert plan["rows_to_scan"] <= table.num_rows
        assert plan["cell_ranges"] >= 1
