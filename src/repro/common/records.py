"""One serialized shape for every stats and report record.

Each layer reports what it did through a dataclass of counters: scans, plan
and result caches, shard fan-out, merges, builds, re-optimization, drift,
the lifecycle loop, batching and serving.  :class:`Record` gives each of
them the same ``as_dict()``.
"""

from __future__ import annotations

from dataclasses import asdict


class Record:
    """Mixin for a stats or report dataclass: ``as_dict()`` is
    ``dataclasses.asdict`` plus the value of every property the class
    defines (``hit_rate``, ``mean_batch_size``, ``scan_work``, ...)."""

    def as_dict(self) -> dict:
        """JSON-serializable form: every field (nested records become
        objects), then every derived property."""
        record = asdict(self)
        for cls in type(self).__mro__:
            for name, member in vars(cls).items():
                if isinstance(member, property):
                    record[name] = getattr(self, name)
        return record
