"""Request queue with micro-batching for the serve layer.

Requests targeting the same warm plan — the same ``(pipeline, extents)``
``batch_key`` — are coalesced into one *micro-batch* and executed
back-to-back on one execution slot, so the per-batch costs (host
lookup, batch span, one worker round trip) amortize over every member.

Dispatch is work-conserving: nobody sleeps with a request in hand.  A
batch is the head of the queue plus whatever same-key requests are
*already queued*, up to ``max_batch_size`` — members run back-to-back,
so waiting for batch-mates could only add latency.  Batches therefore
form exactly when they pay: from the backlog that accumulates while
every execution slot is busy.

Two kinds of consumer take batches: a caller waiting for its own
request takes one without blocking (``next_batch(block=False)``) and
runs it on its own thread; a dispatcher thread sleeps until something
is queued (:meth:`MicroBatchQueue.wait_queued`) and serves requests
nobody runs that way.  Only :meth:`~MicroBatchQueue.submit` with
``wake=True`` (the default) wakes the dispatchers.

Requests with *different* keys are never reordered relative to each
other: batch formation removes same-key requests from anywhere in the
queue but leaves the rest in arrival order.

Admission control lives in
:class:`repro.serve.admission.AdmissionController` — :meth:`submit`
calls it under the queue lock, so the depth check and the enqueue are
one atomic step.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Mapping, Optional

from ..obs import METRICS
from .admission import AdmissionController

__all__ = ["ServeRequest", "MicroBatchQueue"]


@dataclass
class ServeRequest:
    """One admitted unit of work travelling through the queue."""

    id: int
    #: benchmark key ("UM", "HC", ...) — the host registry key
    pipeline: str
    #: coalescing key: requests sharing it run on the same warm plan
    batch_key: Hashable
    #: input arrays by image name
    inputs: Mapping[str, Any]
    #: resolved with a ServeResult (or an exception) by whoever runs it
    future: Future = field(default_factory=Future)
    #: perf_counter timestamp set at admission
    enqueued_at: float = 0.0
    #: perf_counter deadline; expired requests fail with SERVE_TIMEOUT
    #: at dequeue instead of executing
    deadline: Optional[float] = None
    #: how the request was generated (diagnostics; e.g. a seed)
    meta: Mapping[str, Any] = field(default_factory=dict)


class MicroBatchQueue:
    """Bounded FIFO with same-key coalescing.

    One condition variable serves both sides: submitters signal arrivals,
    an idle dispatcher waits on it for a first request.
    """

    def __init__(self, admission: AdmissionController,
                 max_batch_size: int = 8):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.admission = admission
        self.max_batch_size = max_batch_size
        self._items: List[ServeRequest] = []
        self._cond = threading.Condition()

    # -- producer side --------------------------------------------------
    def submit(self, request: ServeRequest, wake: bool = True) -> None:
        """Admit and enqueue, or raise ``SERVE_OVERLOADED`` /
        ``SERVE_SHUTDOWN`` without enqueueing.  ``wake=False`` leaves
        the dispatchers asleep: the caller means to run the request
        itself, and calls :meth:`wake_all` if it does not."""
        with self._cond:
            self.admission.try_admit(len(self._items), request.pipeline)
            request.enqueued_at = time.perf_counter()
            self._items.append(request)
            if METRICS.enabled:
                METRICS.set("repro_serve_queue_depth", len(self._items))
            if wake:
                self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def wake_all(self) -> None:
        """Wake blocked dispatchers."""
        with self._cond:
            self._cond.notify_all()

    def drain_remaining(self) -> List[ServeRequest]:
        """Remove and return everything still queued (terminal cleanup
        after a failed drain; the service fails these futures)."""
        with self._cond:
            items, self._items = self._items, []
            if METRICS.enabled:
                METRICS.set("repro_serve_queue_depth", 0)
            return items

    # -- consumer side --------------------------------------------------
    def wait_queued(self, poll_s: float = 0.05) -> bool:
        """Whether a request is queued, waiting up to ``poll_s`` (the
        dispatcher's shutdown-check cadence) for one while none is."""
        with self._cond:
            if not self._items:
                self._cond.wait(poll_s)
            return bool(self._items)

    def next_batch(self, poll_s: float = 0.05,
                   block: bool = True) -> Optional[List[ServeRequest]]:
        """The next micro-batch, or ``None`` when the queue is empty —
        at once with ``block=False``, else after ``poll_s`` of empty
        queue.

        The first queued request seeds the batch and same-``batch_key``
        requests already queued join it (in queue order, from anywhere
        in the queue) up to ``max_batch_size``; the call only ever
        waits while the queue is empty.
        """
        with self._cond:
            if not self._items:
                if block:
                    self._cond.wait(poll_s)
                if not self._items:
                    return None
            batch = [self._items.pop(0)]
            key = batch[0].batch_key
            i = 0
            while i < len(self._items) and len(batch) < self.max_batch_size:
                if self._items[i].batch_key == key:
                    batch.append(self._items.pop(i))
                else:
                    i += 1
            if METRICS.enabled:
                METRICS.set("repro_serve_queue_depth", len(self._items))
            return batch
