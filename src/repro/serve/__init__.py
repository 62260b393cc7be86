"""Concurrent serving front-end: micro-batching, result cache, backpressure.

This package turns the single-threaded serving library into a server loop:
:class:`ServingFrontend` accepts queries from many client threads, coalesces
arrivals into self-clocked micro-batches
(:class:`~repro.serve.batcher.MicroBatcher`), answers repeated templates from
an LRU :class:`~repro.serve.cache.ResultCache` (invalidated on writes and on
lifecycle merge/reoptimize events), and sheds load beyond a bounded admission
queue with a typed rejection.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.cache import ResultCache, ResultCacheStats
from repro.serve.frontend import ServingConfig, ServingFrontend, ServingStats

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "ResultCache",
    "ResultCacheStats",
    "ServingConfig",
    "ServingFrontend",
    "ServingStats",
]
