"""Self-clocked micro-batching admission queue.

The batched pipeline (``run_batch`` → template dedup → one grid-tree
traversal per batch → shared planning) is ~4x faster per query than
per-query execution, but it only helps if someone *forms* batches.  A server
receives queries one at a time from many client threads; :class:`MicroBatcher`
turns those arrivals into batches with one rule and no time constant:

* :meth:`~MicroBatcher.take` blocks until a request is queued, then keeps
  collecting only while the queue grows across one hand-off of the
  interpreter lock (release the queue, ``os.sched_yield()``, re-acquire),
  and stops at ``max_batch_size``.

Client threads released by the previous batch that reach the interpreter
lock during those hand-offs resubmit into the same batch, so a closed-loop
cohort can be collected whole and the batch grows until service keeps up
with arrivals; a lone request leaves after one hand-off.  Arrivals that pile up while the dispatcher is busy are taken
together at once.

The hand-off is untimed on purpose, because every batch that leaves below
``max_batch_size`` makes at least one.  On Python 3.11 and later
``time.sleep(0)`` is a timed sleep that lasts about the thread's 50 µs
timer slack (54–58 µs per call with 3.11–3.13 on a 2-core Linux VM,
0.5–0.8 µs with 3.10), while ``os.sched_yield()`` costs 0.4–0.7 µs.  With
one client on servebench's ``taxi_skewed`` index, a request's put to take
measures 10–14 µs with the yield against 74–76 µs with ``time.sleep(0)``.
The yield hands the interpreter lock only to a thread already waiting for
it; on that host a client woken by the previous batch often is not yet,
and joins the next batch instead (two closed-loop clients averaged 1.1–1.25
requests per batch, not 2.0; 32 clients 19–22, not 29–31).

Admission is bounded: once ``max_queue_depth`` requests
are queued, :meth:`~MicroBatcher.put` rejects with a typed
:class:`~repro.common.errors.ServerOverloadedError` instead of queueing
unboundedly (backpressure keeps tail latency bounded under overload — the
alternative is every request slowly timing out).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass

from repro.common.errors import ServerClosedError, ServerOverloadedError, ServingError
from repro.common.records import Record


@dataclass
class BatcherStats(Record):
    """Admission and batch accounting for one :class:`MicroBatcher`."""

    items_admitted: int = 0
    items_rejected: int = 0
    batches: int = 0
    largest_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average items per batch handed to the dispatcher."""
        return self.items_admitted / self.batches if self.batches else 0.0


class MicroBatcher:
    """Coalesces concurrent arrivals into bounded, self-clocked batches.

    Producers call :meth:`put` from any number of threads; a dispatcher
    thread calls :meth:`take`, which blocks until a batch is ready and
    returns ``None`` only after :meth:`close` once the queue has drained.

    Parameters
    ----------
    max_batch_size:
        Largest batch :meth:`take` returns; collection stops once this many
        items are queued.
    max_queue_depth:
        Reject admissions (``ServerOverloadedError``) beyond this many queued
        items; items already taken by a dispatcher no longer count.
    """

    def __init__(self, max_batch_size: int = 256, max_queue_depth: int = 2048) -> None:
        if max_batch_size < 1:
            raise ServingError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth < 1:
            raise ServingError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.stats = BatcherStats()
        self._cond = threading.Condition()
        self._queue: deque[object] = deque()
        self._closed = False

    @property
    def depth(self) -> int:
        """Items currently queued (admitted but not yet taken)."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def put(self, item: object) -> None:
        """Admit ``item``, waking a dispatcher waiting on an empty queue.

        Raises :class:`ServerClosedError` after :meth:`close` and
        :class:`ServerOverloadedError` when the queue is at capacity.
        """
        with self._cond:
            if self._closed:
                raise ServerClosedError("micro-batcher is closed")
            if len(self._queue) >= self.max_queue_depth:
                self.stats.items_rejected += 1
                raise ServerOverloadedError(
                    f"admission queue is full ({self.max_queue_depth} pending); "
                    "back off and retry"
                )
            self._queue.append(item)
            self.stats.items_admitted += 1
            # Only an empty queue blocks take(); later arrivals are seen at
            # its next hand-off without a wakeup.
            if len(self._queue) == 1:
                self._cond.notify()

    def take(self) -> list[object] | None:
        """Block until a batch is ready; ``None`` once closed and drained.

        Waits for a first item, then hands the interpreter lock to other
        threads once per round and keeps collecting while each round adds
        items.  The batch leaves when a round adds nothing, when
        ``max_batch_size`` items are queued, or at once after :meth:`close`
        (remaining items leave in batch-size chunks).
        """
        with self._cond:
            seen = 0
            while not self._closed and len(self._queue) < self.max_batch_size:
                depth = len(self._queue)
                if depth == 0:
                    self._cond.wait()
                elif depth > seen:
                    seen = depth
                    self._cond.release()
                    try:
                        os.sched_yield()
                    finally:
                        self._cond.acquire()
                else:
                    break  # a hand-off brought no new arrival
            if not self._queue:
                return None  # closed and drained
            count = min(len(self._queue), self.max_batch_size)
            batch = [self._queue.popleft() for _ in range(count)]
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, count)
            return batch

    def drain(self) -> list[object]:
        """Remove and return every queued item without batch accounting.

        This is crash cleanup, not a batch: when a dispatcher exits
        abnormally, the front-end drains the queue so every admitted request
        can be completed exceptionally instead of blocking forever.
        """
        with self._cond:
            items = list(self._queue)
            self._queue.clear()
            return items

    def close(self) -> None:
        """Stop admissions; queued items keep draining through :meth:`take`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
