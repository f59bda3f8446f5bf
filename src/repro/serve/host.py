"""Warm pipeline hosts and the long-lived in-process service.

A :class:`PipelineHost` holds everything the paper says should be paid
once and amortized over many executions (Sec. 4–5): the schedule
(computed through the resilient chain, optionally via the persistent
:class:`~repro.fusion.schedcache.ScheduleCache`), every group's resolved
kernel (native C where eligible, else the stage walk), a shared
:class:`~repro.runtime.buffers.PoolGroup` of warm scratch pools, and a
pinned persistent executor worker pool.  Requests
then execute on the warm plan through
:func:`repro.resilience.guard.execute_guarded` — the identical code path
a one-shot ``repro run`` takes, which is what keeps served outputs
bit-identical to CLI runs.

A request whose group fails falls back, for that group only, to the
untiled reference (``execute_guarded``'s per-group fallback); the reply
says ``degraded`` and the next request runs the warm plan again.  That
is the host's only per-request degradation: it never swaps its fused
schedule or its kernels for slower ones.

``HostConfig.machine`` names the machine preset the host *schedules*
for; a schedule from the GPU model (a ``gpu-*`` preset) executes on the
same executor (see ``docs/costmodel.md``).

:class:`PipelineService` composes hosts with the micro-batching queue
(:mod:`repro.serve.batching`) and admission control
(:mod:`repro.serve.admission`) into the long-lived service the HTTP
front-end (:mod:`repro.serve.http`) and the ``repro serve`` CLI expose.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..errors import (
    ServeShutdownError,
    ServeTimeoutError,
    ServeUnknownPipelineError,
    ServeWorkerLostError,
)
from .supervisor import WorkerSupervisor, WorkerTierUnavailable
from ..model.machine import get_machine
from ..obs import METRICS, TRACE
from ..obs.metrics import BATCH_SIZE_BUCKETS
from ..pipelines import BENCHMARKS
from ..planner import MAX_STATES, build_benchmark, make_inputs, \
    plan_schedule
from ..resilience import GuardPolicy, execute_guarded
from ..runtime import (
    KernelTier,
    grouping_kernels,
    shared_executor,
)
from ..runtime.buffers import PoolGroup, execution_slot
from ..runtime.executor import _segments
from .admission import AdmissionController
from .batching import MicroBatchQueue, ServeRequest

__all__ = [
    "HostConfig",
    "ServeConfig",
    "ServeResult",
    "PipelineHost",
    "PipelineService",
]

#: bounded retries of a served request's failed tile step before its
#: group falls back to the reference
TILE_RETRIES = 1
#: per-worker cap on the scratch bytes a host's pools retain
POOL_CAP_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class HostConfig:
    """Per-host knobs (shared by every host of one service)."""

    #: machine preset (``repro.model.machine.MACHINES``) schedules are
    #: priced for
    machine: str = "xeon"
    #: image-size fraction of the paper configuration hosts are built at
    scale: float = 0.1
    #: executor worker threads per request.  On native kernels two
    #: measured 1.4-1.5x faster than one on CP, PB and BG on a 2-vCPU
    #: box (docs/serving.md); 1, because a second thread per request
    #: is taken from concurrent requests (``--workers``) on a loaded box
    threads: int = 1
    #: persistent schedule-cache directory (None: schedule per warm)
    schedule_cache: Optional[str] = None


@dataclass(frozen=True)
class ServeConfig:
    """Service-level knobs: queue bound, batching, deadlines."""

    host: HostConfig = field(default_factory=HostConfig)
    #: admission bound on queued (not yet executing) requests
    max_queue: int = 64
    #: cap on same-pipeline requests one dispatch takes from the backlog
    max_batch_size: int = 8
    #: default per-request deadline (None: no deadline)
    default_timeout_s: Optional[float] = 30.0
    #: execution slots: batches that may run at once, on the threads
    #: waiting for them or on as many dispatcher threads
    dispatchers: int = 1
    #: worker processes forked after warm-up (0: in-process only)
    workers: int = 0
    #: per-batch execution timeout on a worker before it is killed
    worker_timeout_s: Optional[float] = 30.0
    #: worker heartbeat interval (staleness kills at 3x this)
    heartbeat_s: float = 1.0


@dataclass
class ServeResult:
    """What a completed request resolves to."""

    request_id: int
    pipeline: str
    outputs: Dict[str, np.ndarray]
    #: True when execute_guarded fell back for at least one group
    degraded: bool
    #: members coalesced into the request's batch (including it)
    batch_size: int
    queue_wait_s: float
    execute_s: float
    #: pid of the worker process that executed it (None: in-process)
    worker: Optional[int] = None
    #: True when the request was re-driven after losing its worker
    retried: bool = False


class PipelineHost:
    """One benchmark's warm serving state (see module docstring)."""

    def __init__(self, key: str, config: HostConfig):
        if key not in BENCHMARKS:
            raise ServeUnknownPipelineError(
                f"unknown pipeline {key!r}; known: {sorted(BENCHMARKS)}",
                pipeline=key, known=sorted(BENCHMARKS),
            )
        self.key = key
        self.config = config
        self._warm_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self.pipeline = None
        self.grouping = None
        #: the kernel tier requests execute at, resolved from the
        #: environment at warm-up
        self.kernels = KernelTier.NATIVE
        #: the one ``GuardPolicy`` every request runs under, from warm-up
        self.policy: Optional[GuardPolicy] = None
        self.schedule_tier: Optional[str] = None
        #: tiled groups whose kernel is native C / is not (the
        #: stage-walking adapter)
        self.native_groups = 0
        self.numpy_groups = 0
        self.pools: Optional[PoolGroup] = None
        self.executor = None
        self.warm_s: Optional[float] = None
        self.requests_served = 0

    @property
    def is_warm(self) -> bool:
        return self.pipeline is not None

    # -- warm-up --------------------------------------------------------
    def warm(self) -> "PipelineHost":
        """Build, schedule, compile, and pin pools — idempotent."""
        with self._warm_lock:
            if self.is_warm:
                return self
            t0 = time.perf_counter()
            # first: a malformed REPRO_KERNELS fails before any work
            self.kernels = KernelTier.resolve()
            with TRACE.span(
                "serve_warm", pipeline=self.key,
                machine=self.config.machine,
            ):
                machine = get_machine(self.config.machine)
                bench, pipe = build_benchmark(self.key, self.config.scale)
                grouping, report = plan_schedule(
                    pipe, bench, machine, "dp", MAX_STATES, strict=False,
                    schedule_cache=self.config.schedule_cache,
                )
                # Resolve and compile every group's kernel now, and plan
                # and pack the native programs a request at this host's
                # thread count runs, so the first request pays neither
                # and forked workers inherit them rather than each paying
                # the exec().
                resolved = grouping_kernels(
                    pipe, grouping.groups, self.kernels,
                    self.config.schedule_cache,
                )
                if self.kernels is KernelTier.NATIVE:
                    _segments(
                        pipe, grouping, self.config.threads, self.kernels
                    )
                self.native_groups = sum(k.native for k in resolved)
                self.numpy_groups = len(resolved) - self.native_groups
                self.policy = GuardPolicy(
                    TILE_RETRIES, degrade=True, kernels=self.kernels,
                )
                self.pools = PoolGroup(POOL_CAP_BYTES)
                self.executor = shared_executor(self.config.threads)
                self.grouping = grouping
                self.schedule_tier = (
                    report.tier if report is not None else "dp"
                )
                self.machine = machine
                self.pipeline = pipe
            self.warm_s = time.perf_counter() - t0
            if METRICS.enabled:
                METRICS.observe("repro_serve_warm_seconds", self.warm_s,
                                pipeline=self.key)
            return self

    def reinit_after_fork(self) -> None:
        """Rebuild thread-backed state in a freshly forked worker.

        Fork copies the warm plan (grouping, compiled kernels, pool
        contents) for free, but inherited locks may be held by parent
        threads that do not exist here, and the inherited executor's
        threads do not exist at all.  Everything else is kept.
        """
        self._warm_lock = threading.Lock()
        self._state_lock = threading.Lock()
        if self.is_warm:
            self.pools = PoolGroup(POOL_CAP_BYTES)
            self.executor = shared_executor(self.config.threads)

    # -- execution ------------------------------------------------------
    def execute(self, inputs: Mapping[str, np.ndarray]):
        """Run one request on the warm plan; returns its
        :class:`~repro.resilience.guard.ExecutionReport` (``outputs``, and
        ``degraded`` when a group fell back to the reference)."""
        if not self.is_warm:
            self.warm()
        report = execute_guarded(
            self.pipeline, self.grouping, inputs,
            nthreads=self.config.threads, policy=self.policy,
            executor=self.executor, pools=self.pools,
        )
        with self._state_lock:
            self.requests_served += 1
        return report

    # -- introspection --------------------------------------------------
    def health(self) -> Dict[str, Any]:
        out = {
            "warm": self.is_warm,
            "machine": self.config.machine,
            "requests": self.requests_served,
        }
        if self.is_warm:
            out.update({
                "schedule_tier": self.schedule_tier,
                "groups": self.grouping.num_groups,
                "kernels": self.kernels.name.lower(),
                "native_groups": self.native_groups,
                "numpy_groups": self.numpy_groups,
                "warm_s": round(self.warm_s, 4),
                "pool": self.pools.stats(),
            })
        return out


class PipelineService:
    """The long-lived in-process serving loop.

    Lifecycle: :meth:`start` spawns the dispatcher thread(s);
    :meth:`submit` admits requests (shedding under load) and returns a
    ``Future``; :meth:`run` admits one and waits for it; :meth:`drain`
    stops admission and waits for every admitted request to complete;
    :meth:`shutdown` drains, stops the dispatchers, and fails anything a
    timed-out drain left behind with ``SERVE_SHUTDOWN``.

    A batch executes on one of ``config.dispatchers`` **execution
    slots**, claimed before the batch is taken from the queue and held
    until the batch finishes, so at most that many batches run at once
    (the worker arenas' one slot per execution slot relies on it) and
    each slot's scratch pools
    (:func:`~repro.runtime.buffers.execution_slot`) serve one batch at a
    time.  :meth:`run` executes on the thread that waits: while its
    request is unfinished and a slot is free, the caller runs the head
    batch itself — no hand-off to a dispatcher and back.  The dispatcher
    threads, one per slot, serve what nobody waits on that way:
    :meth:`submit` futures, and the requests of callers that found every
    slot busy.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.admission = AdmissionController(self.config.max_queue)
        self.queue = MicroBatchQueue(
            self.admission, max_batch_size=self.config.max_batch_size,
        )
        self.hosts: Dict[str, PipelineHost] = {}
        self._hosts_lock = threading.Lock()
        self.supervisor: Optional[WorkerSupervisor] = None
        self._ids = itertools.count(1)
        self._dispatchers: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._started_at: Optional[float] = None
        self._pending = 0
        self._pending_lock = threading.Lock()
        #: execution slots no batch holds; notified when one is freed
        self._free_slots = list(range(self.config.dispatchers))
        self._slot_freed = threading.Condition()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "PipelineService":
        if self._started:
            return self
        METRICS.describe("repro_serve_batch_size", "histogram",
                         buckets=BATCH_SIZE_BUCKETS)
        self._started = True
        self._started_at = time.monotonic()
        for i in range(self.config.dispatchers):
            t = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-dispatch{i}", daemon=True,
            )
            t.start()
            self._dispatchers.append(t)
        return self

    def start_workers(self) -> Optional[WorkerSupervisor]:
        """Fork the worker tier (``config.workers`` processes) from the
        current, warm process.

        Must be called *after* :meth:`warm` — the workers inherit every
        warm host through fork, which is what makes respawn cheap (fork
        time, not warm-up time).  Hosts warmed later exist in the parent
        only; batches for them run on the in-process fallback path.
        No-op when ``config.workers`` is 0.
        """
        if self.config.workers <= 0 or self.supervisor is not None:
            return self.supervisor
        self.supervisor = WorkerSupervisor(
            self.hosts,
            workers=self.config.workers,
            slots=self.config.dispatchers,
            max_batch_size=self.config.max_batch_size,
            worker_timeout_s=self.config.worker_timeout_s,
            heartbeat_s=self.config.heartbeat_s,
        ).start()
        return self.supervisor

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting and wait for all admitted requests; True when
        everything completed within the timeout."""
        self.admission.begin_drain()
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            with self._pending_lock:
                if self._pending == 0:
                    return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.005)

    def shutdown(self, timeout_s: Optional[float] = None) -> bool:
        """Drain, stop dispatchers, fail leftovers; True on clean drain."""
        clean = self.drain(timeout_s)
        self._stop.set()
        self.queue.wake_all()
        for t in self._dispatchers:
            t.join(timeout=5.0)
        for req in self.queue.drain_remaining():
            self._finish(req, error=ServeShutdownError(
                "service shut down before the request could execute",
                pipeline=req.pipeline,
            ))
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None
        self._started = False
        return clean

    # -- host registry --------------------------------------------------
    def host(self, key: str) -> PipelineHost:
        """The (lazily created and warmed) host for a benchmark key."""
        with self._hosts_lock:
            h = self.hosts.get(key)
            if h is None:
                h = self.hosts[key] = PipelineHost(key, self.config.host)
        return h.warm()

    def warm(self, keys) -> None:
        """Eagerly warm the given benchmark keys (service boot)."""
        for key in keys:
            self.host(key)

    # -- request path ---------------------------------------------------
    def submit(
        self,
        pipeline: str,
        inputs: Optional[Mapping[str, np.ndarray]] = None,
        seed: Optional[int] = None,
        timeout_s: Optional[float] = -1.0,
        _meta: Optional[Mapping[str, Any]] = None,
        _wake: bool = True,
    ):
        """Admit one request; returns its ``Future``, which a dispatcher
        thread resolves.

        ``inputs`` are the pipeline's image arrays; alternatively a
        ``seed`` generates them deterministically (bit-identical to
        ``repro run --seed``).  ``timeout_s=-1`` means the service
        default, ``None`` no deadline.  Raises ``SERVE_OVERLOADED`` /
        ``SERVE_SHUTDOWN`` / ``SERVE_UNKNOWN`` instead of enqueueing.

        ``_meta`` is a private extension point (the chaos-test harness
        plants its deterministic fault hooks through it); ``_wake=False``
        leaves the dispatchers asleep, for :meth:`run`.
        """
        # a service that was shut down still answers SERVE_SHUTDOWN
        # (admission refuses below), so only "never started" is a bug
        if not self._started and not self.admission.draining:
            raise RuntimeError("service not started")
        self.host(pipeline)
        meta: Dict[str, Any] = dict(_meta or {})
        if inputs is None:
            # deferred: whoever executes the request (a worker, or the
            # in-process tier) regenerates the arrays from the seed —
            # make_inputs is deterministic — so nothing is generated for
            # a request admission refuses and a worker is shipped nothing
            meta["seed"] = 0 if seed is None else seed
        if timeout_s == -1.0:
            timeout_s = self.config.default_timeout_s
        deadline = (
            None if timeout_s is None
            else time.perf_counter() + timeout_s
        )
        req = ServeRequest(
            id=next(self._ids),
            pipeline=pipeline,
            batch_key=(pipeline, self.config.host.scale),
            inputs=inputs,
            deadline=deadline,
            meta=meta,
        )
        with self._pending_lock:
            self._pending += 1
        try:
            self.queue.submit(req, wake=_wake)
        except BaseException:
            with self._pending_lock:
                self._pending -= 1
            raise
        return req.future

    def run(self, pipeline: str, **kwargs) -> ServeResult:
        """Admit one request with :meth:`submit`'s arguments and wait for
        its result, running batches on the calling thread while it can.

        While the request is unfinished and an execution slot is free,
        the caller claims the slot and runs the head batch — its own
        request's, or an older one's first.  When it stops with requests
        still queued it wakes the dispatchers, then waits for its future.
        """
        future = self.submit(pipeline, _wake=False, **kwargs)
        while not future.done() and self._run_next():
            pass
        if self.queue.depth():
            self.queue.wake_all()
        timeout_s = kwargs.get("timeout_s", -1.0)
        if timeout_s == -1.0:
            timeout_s = self.config.default_timeout_s
        # Slack over the server-side deadline so the server-side
        # SERVE_TIMEOUT (not a client-side TimeoutError) wins the race.
        return future.result(
            timeout=None if timeout_s is None
            else min(timeout_s + 30.0, threading.TIMEOUT_MAX)
        )

    # -- execution slots ------------------------------------------------
    def _run_next(self, wait_s: float = 0.0) -> bool:
        """Claim an execution slot (waiting up to ``wait_s`` for one),
        take the head batch and run it on the calling thread; False when
        every slot stayed busy or nothing was queued.

        The slot comes first, so nobody holds a batch no slot may run;
        it is freed, and a thread waiting for one woken, when the batch
        finished."""
        with self._slot_freed:
            if not self._free_slots and wait_s:
                self._slot_freed.wait(wait_s)
            if not self._free_slots:
                return False
            slot = self._free_slots.pop()
        try:
            batch = self.queue.next_batch(block=False)
            if batch is not None:
                try:
                    with execution_slot(slot):
                        self._run_batch(batch)
                except BaseException as exc:  # pragma: no cover - last resort
                    for req in batch:
                        if not req.future.done():
                            self._finish(req, error=exc)
        finally:
            with self._slot_freed:
                self._free_slots.append(slot)
                self._slot_freed.notify()
        return batch is not None

    def _dispatch_loop(self) -> None:
        while True:
            if self.queue.wait_queued(poll_s=0.05):
                self._run_next(wait_s=0.05)
            elif self._stop.is_set():
                return

    def _run_batch(self, batch: List[ServeRequest]) -> None:
        key = batch[0].pipeline
        host = self.hosts[key]
        now = time.perf_counter()
        live: List[ServeRequest] = []
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                self._finish(req, error=ServeTimeoutError(
                    f"request {req.id} deadline expired after "
                    f"{now - req.enqueued_at:.3f}s in queue",
                    pipeline=key, request_id=req.id,
                ), timeout=True)
            else:
                live.append(req)
        if not live:
            return
        observing = METRICS.enabled
        sup = self.supervisor
        if sup is not None and sup.available(key):
            try:
                self._run_batch_on_workers(sup, key, live)
            except WorkerTierUnavailable:
                # breaker open or the tier lost its last worker while we
                # prepared: the in-process path below is the fallback
                # tier the breaker trips to
                self._run_batch_in_process(key, host, live, observing)
        else:
            self._run_batch_in_process(key, host, live, observing)
        if observing:
            METRICS.observe("repro_serve_batch_size", len(live),
                            pipeline=key)
            METRICS.inc("repro_serve_batches_total", pipeline=key)

    def _run_batch_on_workers(self, sup: WorkerSupervisor, key: str,
                              live: List[ServeRequest]) -> None:
        """Ship one micro-batch to the worker tier and resolve futures
        from its outcomes."""
        observing = METRICS.enabled
        waits = {}
        for req in live:
            waits[req.id] = time.perf_counter() - req.enqueued_at
            if observing:
                METRICS.observe("repro_serve_queue_wait_seconds",
                                waits[req.id], pipeline=key)
        with TRACE.span("batch", pipeline=key, size=len(live),
                        tier="workers"):
            t0 = time.perf_counter()
            outcomes = sup.execute_batch(key, live)
            execute_s = time.perf_counter() - t0
        by_rid = {o.rid: o for o in outcomes}
        for req in live:
            out = by_rid.get(req.id)
            if out is None:
                self._finish(req, error=ServeWorkerLostError(
                    "worker reply omitted the request",
                    pipeline=key, request_id=req.id,
                ))
            elif out.error is not None:
                self._finish(req, error=out.error)
            else:
                self._finish(req, result=ServeResult(
                    request_id=req.id,
                    pipeline=key,
                    outputs=out.outputs,
                    degraded=out.degraded,
                    batch_size=len(live),
                    queue_wait_s=waits[req.id],
                    execute_s=execute_s,
                    worker=out.worker,
                    retried=out.retried,
                ))

    def _run_batch_in_process(self, key: str, host: PipelineHost,
                              live: List[ServeRequest],
                              observing: bool) -> None:
        with TRACE.span("batch", pipeline=key, size=len(live)):
            for req in live:
                queue_wait = time.perf_counter() - req.enqueued_at
                if observing:
                    METRICS.observe("repro_serve_queue_wait_seconds",
                                    queue_wait, pipeline=key)
                with TRACE.span("request", id=req.id, pipeline=key):
                    t0 = time.perf_counter()
                    try:
                        inputs = req.inputs
                        if inputs is None:
                            # deferred seed request — regenerate here,
                            # exactly as a worker would
                            inputs = make_inputs(
                                host.pipeline, int(req.meta["seed"])
                            )
                        report = host.execute(inputs)
                    except Exception as exc:
                        self._finish(req, error=exc)
                        continue
                    result = ServeResult(
                        request_id=req.id,
                        pipeline=key,
                        outputs=report.outputs,
                        degraded=report.degraded,
                        batch_size=len(live),
                        queue_wait_s=queue_wait,
                        execute_s=time.perf_counter() - t0,
                    )
                    self._finish(req, result=result)

    def _finish(self, req: ServeRequest, result=None, error=None,
                timeout: bool = False) -> None:
        """Resolve a request's future exactly once and account for it."""
        with self._pending_lock:
            self._pending -= 1
        if error is not None:
            if timeout:
                self.admission.note_timeout(req.pipeline)
            else:
                self.admission.note_error(req.pipeline)
            req.future.set_exception(error)
        else:
            self.admission.note_completed(req.pipeline)
            req.future.set_result(result)

    # -- introspection --------------------------------------------------
    @property
    def pending(self) -> int:
        """Admitted requests not yet completed (queued + executing)."""
        with self._pending_lock:
            return self._pending

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` snapshot."""
        if not self._started:
            status = "stopped"
        elif self.admission.draining:
            status = "draining"
        else:
            status = "serving"
        return {
            "status": status,
            "uptime_s": (
                round(time.monotonic() - self._started_at, 3)
                if self._started_at is not None else 0.0
            ),
            "queue_depth": self.queue.depth(),
            "pending": self.pending,
            "admission": self.admission.snapshot(),
            "config": {
                "max_queue": self.config.max_queue,
                "max_batch_size": self.config.max_batch_size,
                "dispatchers": self.config.dispatchers,
                "threads": self.config.host.threads,
                "scale": self.config.host.scale,
            },
            "hosts": {
                key: host.health() for key, host in self.hosts.items()
            },
            "workers": (
                self.supervisor.health()
                if self.supervisor is not None else None
            ),
        }
