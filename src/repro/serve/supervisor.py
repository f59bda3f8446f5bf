"""Supervision of the worker tier: heartbeats, timeouts, respawn, retry.

:class:`WorkerSupervisor` owns N worker processes forked from the warm
service (:mod:`repro.serve.workers`) and routes micro-batches to them
over control pipes, with arrays crossing only through each worker's
shared-memory arena (:class:`repro.serve.shm.Arena`).  The robustness
contract:

* **Liveness** — every worker heartbeats on its pipe; a monitor thread
  SIGKILLs workers whose heartbeat goes stale or whose current batch
  exceeds the per-request execution timeout.  Death by any cause
  (``kill -9`` included) surfaces as EOF on the pipe — there is no way
  for a worker to die unnoticed.
* **Respawn** — dead workers are reforked from the still-warm parent,
  so a replacement is serving again in fork time, not warm-up time.
* **At-most-once retry** — a batch in flight on a dead worker is
  resubmitted to another worker exactly once; a second loss fails it
  with ``SERVE_WORKER_LOST``.  Timeout kills are *not* retried (a
  request that hung one worker would hang its replacement) and fail
  with ``SERVE_WORKER_TIMEOUT``.
* **Circuit breaker** — per pipeline: repeated worker deaths within a
  window open the breaker, and :meth:`WorkerSupervisor.execute_batch`
  raises :class:`WorkerTierUnavailable` so the service falls back to
  its in-process single-process tier; after a cooldown one probe batch
  is allowed through (half-open) and a clean result recloses it.
* **Reclamation** — there is nothing to reclaim outside the process
  tree: each worker slot's arena is an unnamed mapping made before the
  slot's first fork and kept across its respawns, so no name ever
  appears in ``/dev/shm``.  A batch holds one arena slot from submit
  until its reply is copied out (or its worker is reaped), so a slot is
  never shared by two batches and no result aliases a later one.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ERROR_CODES, ReproError, ServeWorkerLostError, \
    ServeWorkerTimeoutError
from ..obs import METRICS
from ..runtime.executor import validate_inputs
from .shm import Arena, plan_layout, view_arrays, write_arrays
from .workers import spawn_worker

__all__ = [
    "WorkerTierUnavailable",
    "WorkerOutcome",
    "CircuitBreaker",
    "WorkerSupervisor",
]

#: breaker states (also the gauge encoding)
BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN = 0, 1, 2

#: a supervisor's breaker: worker deaths per pipeline within the window
#: that open it, and the seconds it stays open before a probe batch
BREAKER_THRESHOLD, BREAKER_WINDOW_S, BREAKER_COOLDOWN_S = 3, 30.0, 5.0


class WorkerTierUnavailable(RuntimeError):
    """The worker tier cannot take this batch right now (breaker open or
    no live workers); the caller must use the in-process fallback.
    Internal control flow — never surfaces to clients."""


def _rebuild_error(code: str, message: str) -> ReproError:
    """Reconstruct a worker-side failure from its stable ``(code,
    message)`` wire form, preserving the code even for codes this
    process's taxonomy does not know."""
    cls = ERROR_CODES.get(code)
    if cls is not None:
        try:
            return cls(message)
        except TypeError:
            pass
    err = ReproError(message)
    err.code = code
    return err


class CircuitBreaker:
    """Per-pipeline death-rate breaker (closed → open → half-open).

    ``threshold`` worker deaths attributed to a pipeline within
    ``window_s`` open its breaker; after ``cooldown_s`` one probe batch
    is allowed (half-open), and its outcome recloses or reopens.
    """

    def __init__(self, threshold: int = BREAKER_THRESHOLD,
                 window_s: float = BREAKER_WINDOW_S,
                 cooldown_s: float = BREAKER_COOLDOWN_S):
        self.threshold = max(1, threshold)
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._deaths: Dict[str, Deque[float]] = {}
        self._state: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self._probing: Set[str] = set()
        self.trips = 0

    def state(self, key: str) -> int:
        with self._lock:
            return self._state.get(key, BREAKER_CLOSED)

    def allow(self, key: str) -> bool:
        """May a batch for ``key`` go to the worker tier now?  Handles
        the open → half-open transition after cooldown."""
        now = time.monotonic()
        with self._lock:
            state = self._state.get(key, BREAKER_CLOSED)
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_OPEN:
                if now - self._opened_at.get(key, now) < self.cooldown_s:
                    return False
                self._set(key, BREAKER_HALF_OPEN)
                self._probing.add(key)
                return True
            # half-open: one probe in flight at a time
            if key in self._probing:
                return False
            self._probing.add(key)
            return True

    def note_death(self, key: str) -> None:
        """A worker died while executing this pipeline."""
        now = time.monotonic()
        with self._lock:
            if self._state.get(key, BREAKER_CLOSED) == BREAKER_HALF_OPEN:
                self._open(key, now)
                return
            d = self._deaths.setdefault(key, deque())
            d.append(now)
            while d and now - d[0] > self.window_s:
                d.popleft()
            if len(d) >= self.threshold:
                self._open(key, now)

    def abort(self, key: str) -> None:
        """The batch that consumed a half-open probe slot never reached
        a worker; free the slot without judging the probe."""
        with self._lock:
            self._probing.discard(key)

    def note_result(self, key: str, ok: bool) -> None:
        """A worker-tier batch for ``key`` completed (no worker died
        executing it when ``ok``)."""
        with self._lock:
            if self._state.get(key, BREAKER_CLOSED) != BREAKER_HALF_OPEN:
                return
            self._probing.discard(key)
            if ok:
                self._set(key, BREAKER_CLOSED)
                self._deaths.pop(key, None)
            else:
                self._open(key, time.monotonic())

    def _open(self, key: str, now: float) -> None:
        self._probing.discard(key)
        self._opened_at[key] = now
        if self._state.get(key, BREAKER_CLOSED) != BREAKER_OPEN:
            self.trips += 1
            if METRICS.enabled:
                METRICS.inc("repro_serve_breaker_trips_total",
                            pipeline=key)
        self._set(key, BREAKER_OPEN)

    def _set(self, key: str, state: int) -> None:
        self._state[key] = state
        if METRICS.enabled:
            METRICS.set("repro_serve_breaker_state", state, pipeline=key)

    def snapshot(self) -> Dict[str, str]:
        names = {BREAKER_CLOSED: "closed", BREAKER_OPEN: "open",
                 BREAKER_HALF_OPEN: "half-open"}
        with self._lock:
            return {k: names[v] for k, v in sorted(self._state.items())}


@dataclass
class WorkerOutcome:
    """Per-request result of a worker-tier batch."""

    rid: int
    outputs: Optional[Dict[str, np.ndarray]] = None
    degraded: bool = False
    error: Optional[BaseException] = None
    worker: int = -1
    retried: bool = False


@dataclass
class _BatchRecord:
    """One batch in flight on (or between) workers."""

    batch_id: int
    key: str
    items: List[Dict[str, Any]]
    #: explicit input arrays by ``"<rid>/<image>"`` and their places in
    #: a slot; written into each slot the batch is submitted to
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    in_specs: Dict[str, Tuple] = field(default_factory=dict)
    event: threading.Event = field(default_factory=threading.Event)
    outcomes: Optional[List[WorkerOutcome]] = None
    error: Optional[BaseException] = None
    retried: bool = False
    worker_slot: int = -1
    #: the arena slot the batch holds on ``worker_slot``'s arena (-1:
    #: none)
    arena_slot: int = -1
    started_at: float = 0.0


class _WorkerHandle:
    """Supervisor-side state of one worker process."""

    def __init__(self, slot: int, proc, conn):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.pid = proc.pid
        self.lock = threading.Lock()
        self.in_flight: Dict[int, _BatchRecord] = {}
        self.last_hb = time.monotonic()
        self.alive = True
        self.kill_reason: Optional[str] = None
        self.batches_done = 0
        self.receiver: Optional[threading.Thread] = None

    def load(self) -> int:
        with self.lock:
            return len(self.in_flight)

    def oldest_start(self) -> Optional[float]:
        with self.lock:
            if not self.in_flight:
                return None
            return min(r.started_at for r in self.in_flight.values())


class WorkerSupervisor:
    """Owns the worker processes and every batch routed to them.

    ``slots`` is how many batches one worker's arena holds at once —
    the service's execution-slot count (``ServeConfig.dispatchers``),
    since no more batches than that are ever in flight — and
    ``max_batch_size`` how many requests one batch carries; together
    with the template hosts' image and output sizes they size the
    arenas at :meth:`start`.
    """

    def __init__(
        self,
        hosts: Dict[str, Any],
        workers: int = 2,
        slots: int = 1,
        max_batch_size: int = 8,
        worker_timeout_s: float = 30.0,
        heartbeat_s: float = 1.0,
    ):
        self.hosts = hosts
        self.nworkers = max(1, int(workers))
        self.slots = max(1, int(slots))
        self.max_batch_size = max(1, int(max_batch_size))
        self.worker_timeout_s = worker_timeout_s
        self.heartbeat_s = heartbeat_s
        #: one per worker slot, made before its first fork, kept across
        #: respawns; set by start()
        self._arenas: List[Arena] = []
        #: bytes one request's outputs take in a slot, per template key
        self._out_bytes: Dict[str, int] = {}
        self.slot_bytes = 0
        self.breaker = CircuitBreaker()
        self._slots: List[Optional[_WorkerHandle]] = [None] * self.nworkers
        self._lock = threading.Lock()
        self._batch_ids = itertools.count(1)
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False
        self.restarts = 0
        self.retries = 0
        self.lost = 0

    # -- lifecycle ------------------------------------------------------
    #: benchmark keys the workers inherited at fork time; set by start()
    template_keys: frozenset = frozenset()

    def start(self) -> "WorkerSupervisor":
        if self._started:
            return self
        # Workers get a fork-time copy of the hosts map.  Pipelines the
        # parent warms later exist only in the parent, so batches for
        # them must never be routed to a worker.
        self.template_keys = frozenset(
            k for k, h in self.hosts.items() if h.is_warm
        )
        self._size_arenas()
        for slot in range(self.nworkers):
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-monitor",
            daemon=True,
        )
        self._monitor.start()
        self._started = True
        self._gauge_workers()
        return self

    def shutdown(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        with self._lock:
            handles = [h for h in self._slots if h is not None]
            self._slots = [None] * self.nworkers
        for h in handles:
            try:
                h.conn.send(("stop",))
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        for h in handles:
            h.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if h.proc.is_alive():
                h.proc.kill()
                h.proc.join(timeout=2.0)
            try:
                h.conn.close()
            except OSError:
                pass
            with h.lock:
                records = list(h.in_flight.values())
                h.in_flight.clear()
            for rec in records:
                self._release_slot(rec)
                self._resolve(rec, error=ServeWorkerLostError(
                    "service shut down while the batch was on a worker",
                    pipeline=rec.key,
                ))
        self._started = False
        self._gauge_workers()

    def _size_arenas(self) -> None:
        """One arena per worker slot: ``slots`` pieces, each holding
        ``max_batch_size`` times the largest per-request input-plus-
        output bytes over the template hosts."""
        request_bytes = 0
        for key in sorted(self.template_keys):
            pipe = self.hosts[key].pipeline
            in_bytes, _ = plan_layout(
                (img.name, pipe.image_shape(img), img.scalar_type.np_dtype)
                for img in pipe.images
            )
            self._out_bytes[key], _ = plan_layout(
                (out.name, pipe.domain_extents(out),
                 out.scalar_type.np_dtype)
                for out in pipe.outputs
            )
            request_bytes = max(request_bytes,
                                in_bytes + self._out_bytes[key])
        self.slot_bytes = self.max_batch_size * request_bytes
        self._arenas = [Arena(self.slots, self.slot_bytes)
                        for _ in range(self.nworkers)]

    # -- batch execution ------------------------------------------------
    def available(self, key: str) -> bool:
        """Whether the worker tier should take a batch for ``key`` —
        checked by the service before preparing one (does not consume a
        half-open probe slot)."""
        if not self._started or self._stop.is_set():
            return False
        if key not in self.template_keys:
            return False
        return any(h is not None and h.alive for h in self._slots)

    def execute_batch(self, key: str, requests) -> List[WorkerOutcome]:
        """Route one micro-batch to a worker and block until resolved.

        ``requests`` are :class:`repro.serve.batching.ServeRequest`
        objects sharing one ``(pipeline, scale)`` batch key.  Explicit
        inputs are validated here, against the warm host: a request
        that fails gets its ``INPUT_*`` outcome without reaching a
        worker.  Raises :class:`WorkerTierUnavailable` when the batch
        must go to the in-process fallback instead — the breaker is
        open, no worker is live, the batch does not fit a slot, or
        every slot of the chosen worker is taken.
        """
        if not self._started or self._stop.is_set():
            raise WorkerTierUnavailable("worker tier not running")
        rejected: List[WorkerOutcome] = []
        accepted = []
        pipe = self.hosts[key].pipeline
        for req in requests:
            try:
                if req.inputs is not None:
                    validate_inputs(pipe, req.inputs)
            except Exception as exc:
                rejected.append(WorkerOutcome(rid=req.id, error=exc))
                continue
            accepted.append(req)
        if not accepted:
            return rejected
        if not self.breaker.allow(key):
            raise WorkerTierUnavailable(
                f"circuit breaker open for pipeline {key!r}"
            )
        try:
            rec = self._prepare(key, accepted)
            self._submit(rec)
        except BaseException:
            self.breaker.abort(key)
            raise
        # The monitor resolves hung batches (timeout kill -> worker
        # death -> resolution), so this wait only backstops supervisor
        # bugs, with slack for one retry hop.  A batch left unresolved
        # keeps its slot: its worker may still write into it.
        backstop = (self.worker_timeout_s or 30.0) * 2.0 + 30.0
        rec.event.wait(timeout=backstop)
        if not rec.event.is_set():
            rec.error = ServeWorkerLostError(
                "batch never resolved within the supervision backstop",
                pipeline=key, batch_id=rec.batch_id,
            )
        worker_died = rec.error is not None or rec.retried
        self.breaker.note_result(key, ok=not worker_died)
        if rec.error is not None:
            return rejected + [
                WorkerOutcome(rid=req.id, error=rec.error,
                              retried=rec.retried)
                for req in accepted
            ]
        return rejected + rec.outcomes

    def _prepare(self, key: str, requests) -> _BatchRecord:
        """Build the wire items and plan the explicit inputs' places in
        a slot (written by :meth:`_submit`, into whichever slot the
        batch lands in)."""
        pipe = self.hosts[key].pipeline
        items: List[Dict[str, Any]] = []
        arrays: Dict[str, np.ndarray] = {}
        places = []
        for req in requests:
            item: Dict[str, Any] = {"rid": req.id}
            for hook in ("test_sleep_s", "test_exit"):
                if req.meta.get(hook) is not None:
                    item[hook] = req.meta[hook]
            if req.inputs is None:
                item["seed"] = int(req.meta.get("seed", 0))
            else:
                item["images"] = sorted(img.name for img in pipe.images)
                for img in pipe.images:
                    place = f"{req.id}/{img.name}"
                    arrays[place] = req.inputs[img.name]
                    places.append((place, pipe.image_shape(img),
                                   img.scalar_type.np_dtype))
            items.append(item)
        in_end, in_specs = plan_layout(places)
        need = in_end + len(requests) * self._out_bytes[key]
        if need > self.slot_bytes:
            raise WorkerTierUnavailable(
                f"a batch of {len(requests)} needs {need} bytes; an arena "
                f"slot holds {self.slot_bytes}"
            )
        return _BatchRecord(
            batch_id=next(self._batch_ids), key=key, items=items,
            arrays=arrays, in_specs=in_specs,
        )

    def _submit(self, rec: _BatchRecord) -> None:
        """Place a record on the best live worker: take a free slot of
        its arena, write the inputs into it, send the slot index."""
        handle = self._pick_worker(rec.key)
        if handle is None:
            raise WorkerTierUnavailable("no live workers")
        arena = self._arenas[handle.slot]
        slot = arena.take()
        if slot is None:
            raise WorkerTierUnavailable(
                f"every arena slot of worker {handle.slot} is in use"
            )
        write_arrays(arena.buf(slot), rec.in_specs, rec.arrays)
        with handle.lock:
            if not handle.alive:
                arena.free(slot)
                raise WorkerTierUnavailable("worker died during submit")
            rec.worker_slot = handle.slot
            rec.arena_slot = slot
            rec.started_at = time.monotonic()
            handle.in_flight[rec.batch_id] = rec
        try:
            handle.conn.send(
                ("run", rec.batch_id, rec.key, slot, rec.in_specs,
                 rec.items)
            )
        except OSError:
            with handle.lock:
                ours = handle.in_flight.pop(rec.batch_id, None) is rec
            if ours:
                self._release_slot(rec)
                raise WorkerTierUnavailable(
                    "worker pipe broken during submit")
            # else the worker's death already took the record over and
            # redrove it: the caller waits for that outcome

    def _pick_worker(self, key: str) -> Optional[_WorkerHandle]:
        """Least-loaded live worker; ties break on a stable hash of the
        batch key so one pipeline's batches keep landing on the same
        worker (shard affinity keeps its warm pools hot)."""
        with self._lock:
            live = [h for h in self._slots if h is not None and h.alive]
        if not live:
            return None
        anchor = zlib.crc32(key.encode()) % self.nworkers
        return min(
            live,
            key=lambda h: (h.load(), (h.slot - anchor) % self.nworkers),
        )

    def _release_slot(self, rec: _BatchRecord) -> None:
        """Give the record's arena slot back; called by whoever took the
        record out of its worker's ``in_flight``."""
        if rec.arena_slot >= 0:
            self._arenas[rec.worker_slot].free(rec.arena_slot)
            rec.arena_slot = -1

    def _resolve(self, rec: _BatchRecord, outcomes=None,
                 error=None) -> None:
        if rec.event.is_set():
            return
        rec.outcomes = outcomes
        rec.error = error
        rec.event.set()

    # -- worker lifecycle -----------------------------------------------
    def _spawn(self, slot: int) -> _WorkerHandle:
        proc, conn = spawn_worker(
            slot, self.hosts, self.heartbeat_s, self._arenas[slot]
        )
        handle = _WorkerHandle(slot, proc, conn)
        handle.receiver = threading.Thread(
            target=self._receive_loop, args=(handle,),
            name=f"repro-serve-recv{slot}", daemon=True,
        )
        handle.receiver.start()
        with self._lock:
            self._slots[slot] = handle
        return handle

    def _receive_loop(self, handle: _WorkerHandle) -> None:
        """Drain one worker's pipe until it dies or shutdown."""
        while True:
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError, TypeError):
                # TypeError: _kill closed the connection between recv's
                # closed-check and its read (the handle is None by then)
                break
            handle.last_hb = time.monotonic()
            if msg[0] == "hb":
                continue
            if msg[0] != "ok":
                continue
            _, batch_id, slot, out_specs, entries = msg
            with handle.lock:
                rec = handle.in_flight.pop(batch_id, None)
                handle.batches_done += 1
            if rec is None:
                # resolved elsewhere (shutdown took it): drop the reply
                continue
            try:
                outcomes = self._adopt_reply(handle, rec, slot, out_specs,
                                             entries)
            except Exception as exc:
                self._release_slot(rec)
                self._resolve(rec, error=ServeWorkerLostError(
                    f"worker reply could not be adopted: {exc}",
                    pipeline=rec.key,
                ))
                continue
            self._release_slot(rec)
            self._resolve(rec, outcomes=outcomes)
            if METRICS.enabled:
                METRICS.inc("repro_serve_worker_batches_total",
                            worker=str(handle.slot))
        self._on_death(handle)

    def _adopt_reply(self, handle: _WorkerHandle, rec: _BatchRecord,
                     slot: int, out_specs, entries) -> List[WorkerOutcome]:
        """Copy the worker's outputs out of the batch's slot into arrays
        this process owns — the slot is freed right after, so no result
        may point into it."""
        if slot != rec.arena_slot:
            raise ValueError(
                f"reply names slot {slot}, the batch holds {rec.arena_slot}"
            )
        views = view_arrays(self._arenas[rec.worker_slot].buf(slot),
                            out_specs)
        outcomes: List[WorkerOutcome] = []
        for entry in entries:
            rid = entry["rid"]
            if entry.get("error") is not None:
                code, message = entry["error"]
                outcomes.append(WorkerOutcome(
                    rid=rid, error=_rebuild_error(code, message),
                    worker=handle.pid, retried=rec.retried,
                ))
                continue
            outcomes.append(WorkerOutcome(
                rid=rid,
                outputs={name: views[f"{rid}/{name}"].copy()
                         for name in entry["outputs"]},
                degraded=entry["degraded"],
                worker=handle.pid,
                retried=rec.retried,
            ))
        return outcomes

    def _on_death(self, handle: _WorkerHandle) -> None:
        """One worker's pipe closed: reap it, free its batches' slots,
        respawn its slot, retry or fail its batches."""
        with handle.lock:
            if not handle.alive:
                return
            handle.alive = False
            records = list(handle.in_flight.values())
            handle.in_flight.clear()
        reason = handle.kill_reason or "crash"
        # reap first: a slot is freed only once nothing can write to it
        handle.proc.join(timeout=5.0)
        for rec in records:
            self._release_slot(rec)
        try:
            handle.conn.close()
        except OSError:
            pass
        with self._lock:
            if self._slots[handle.slot] is handle:
                self._slots[handle.slot] = None
        self.restarts += 1
        if METRICS.enabled:
            METRICS.inc("repro_serve_worker_restarts_total",
                        reason=reason)
        self._gauge_workers()
        for key in sorted({rec.key for rec in records}):
            self.breaker.note_death(key)
        if not self._stop.is_set():
            self._spawn(handle.slot)
            self._gauge_workers()
        for rec in records:
            self._redrive(rec, reason)

    def _redrive(self, rec: _BatchRecord, reason: str) -> None:
        """At-most-once retry of a batch lost to a worker death."""
        if reason == "timeout":
            self._resolve(rec, error=ServeWorkerTimeoutError(
                f"worker exceeded the {self.worker_timeout_s:.1f}s "
                "execution timeout and was killed",
                pipeline=rec.key, batch_id=rec.batch_id,
            ))
            return
        if rec.retried:
            self.lost += 1
            if METRICS.enabled:
                METRICS.inc("repro_serve_worker_lost_total",
                            pipeline=rec.key)
            self._resolve(rec, error=ServeWorkerLostError(
                "worker died executing the request and its retry on a "
                "replacement worker was also lost",
                pipeline=rec.key, batch_id=rec.batch_id,
            ))
            return
        rec.retried = True
        self.retries += 1
        if METRICS.enabled:
            METRICS.inc("repro_serve_worker_retries_total",
                        pipeline=rec.key)
        try:
            self._submit(rec)
        except WorkerTierUnavailable as exc:
            self.lost += 1
            if METRICS.enabled:
                METRICS.inc("repro_serve_worker_lost_total",
                            pipeline=rec.key)
            self._resolve(rec, error=ServeWorkerLostError(
                f"worker died and no replacement could take the retry "
                f"({exc})", pipeline=rec.key, batch_id=rec.batch_id,
            ))

    # -- monitoring -----------------------------------------------------
    def _monitor_loop(self) -> None:
        poll = max(0.02, min(self.heartbeat_s / 2.0, 0.25))
        stale_after = max(self.heartbeat_s * 3.0, 0.5)
        while not self._stop.wait(poll):
            now = time.monotonic()
            with self._lock:
                handles = [h for h in self._slots if h is not None]
            for h in handles:
                if not h.alive:
                    continue
                if METRICS.enabled:
                    METRICS.set("repro_serve_worker_heartbeat_age_seconds",
                                now - h.last_hb, worker=str(h.slot))
                oldest = h.oldest_start()
                if (self.worker_timeout_s is not None and oldest is not None
                        and now - oldest > self.worker_timeout_s):
                    self._kill(h, "timeout")
                elif not h.proc.is_alive():
                    # SIGKILL'd externally; receiver EOF follows, but a
                    # kill between batches may leave the pipe open on
                    # our side — close it to force the EOF through
                    self._kill(h, h.kill_reason or "crash")
                elif now - h.last_hb > stale_after:
                    self._kill(h, "heartbeat")

    def _kill(self, handle: _WorkerHandle, reason: str) -> None:
        handle.kill_reason = handle.kill_reason or reason
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        # The receiver's conn.recv() EOFs once both write ends are gone;
        # closing ours guarantees that even if the child never closed
        # its inherited copy of the parent end.
        try:
            handle.conn.close()
        except OSError:
            pass

    def _gauge_workers(self) -> None:
        if METRICS.enabled:
            with self._lock:
                live = sum(
                    1 for h in self._slots if h is not None and h.alive
                )
            METRICS.set("repro_serve_workers", live)

    # -- introspection --------------------------------------------------
    def worker_pids(self) -> List[int]:
        with self._lock:
            return [h.pid for h in self._slots
                    if h is not None and h.alive]

    def busy_pids(self) -> List[int]:
        """Pids of workers with at least one batch in flight (what a
        chaos test wants to SIGKILL)."""
        with self._lock:
            handles = [h for h in self._slots if h is not None and h.alive]
        return [h.pid for h in handles if h.load() > 0]

    def health(self) -> Dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            handles = [(i, h) for i, h in enumerate(self._slots)]
            arenas = list(self._arenas)
        workers = []
        for slot, h in handles:
            if h is None:
                workers.append({"slot": slot, "state": "respawning"})
                continue
            workers.append({
                "slot": slot,
                "pid": h.pid,
                "state": "live" if h.alive else "dead",
                "in_flight": h.load(),
                "heartbeat_age_s": round(now - h.last_hb, 3),
                "batches": h.batches_done,
                "free_slots": arenas[slot].free_slots(),
            })
        return {
            "workers": workers,
            "restarts": self.restarts,
            "retries": self.retries,
            "lost": self.lost,
            "breaker": self.breaker.snapshot(),
            "arena": {"slots": self.slots, "slot_bytes": self.slot_bytes},
        }
