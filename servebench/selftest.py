"""Checks of the benchmark itself, not of the library.

Usage, from the repository root::

    python3 servebench/selftest.py

1. The same seed gives byte-identical inputs; another seed does not.
2. The tracer wraps every traced function and restores the originals.
3. BENCHMARK.json lists exactly the workloads, and the metric names and
   units, that ``run.py`` prints.
4. The named counts -- ``index_bytes``, ``scan.points_scanned_per_query``,
   ``lifecycle.reoptimizations`` and ``merge.count`` -- repeat exactly
   across two traced runs of one seed, on every workload.

Prints one line per check and exits 1 at the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("index_bytes", "scan.points_scanned_per_query", "lifecycle.reoptimizations", "merge.count")
#: Long enough for the ingest stream to cross its mix change and merge.
COUNT_SECONDS = 6


def check(passed: bool, message: str) -> None:
    print(("ok    " if passed else "FAIL  ") + message, flush=True)
    if not passed:
        sys.exit(1)


def main() -> None:
    for name, spec in workloads.WORKLOADS.items():
        first = inputs.fingerprint(spec.make_inputs(7, 1))
        check(first == inputs.fingerprint(spec.make_inputs(7, 1)), f"{name}: seed 7 twice gives byte-identical inputs")
        check(first != inputs.fingerprint(spec.make_inputs(8, 1)), f"{name}: seed 8 gives other inputs")

    originals = {(owner, method): owner.__dict__[method] for owner, method, *_ in tracing.TRACED}
    with tracing.Tracer():
        wrapped = all(owner.__dict__[method] is not original for (owner, method), original in originals.items())
    check(wrapped, "the tracer wraps every traced function")
    restored = all(owner.__dict__[method] is original for (owner, method), original in originals.items())
    check(restored, "the tracer restores every original function")

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [workload["name"] for workload in benchmark["workloads"]]
    check(listed == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(metric["name"], metric["unit"]) for metric in benchmark[key]]
        check(listed == list(printed), f"BENCHMARK.json {key} names and units are the ones run.py prints")

    for name in workloads.WORKLOADS:
        first, second = (workloads.measure(name, 3, COUNT_SECONDS, trace=True) for _ in range(2))
        check(first.failed == second.failed == 0, f"{name}: both traced runs answer correctly")
        for count in COUNTS:
            value = first.metrics[count]
            check(value == second.metrics[count], f"{name}: {count} repeats exactly ({value:g})")


if __name__ == "__main__":
    main()
