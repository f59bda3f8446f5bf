"""Long-lived pipeline serving with crash-isolated workers.

The serve layer turns the one-shot executor into a service: per-pipeline
:class:`PipelineHost`\\ s hold warm schedules, compiled kernels, pinned
worker pools and scratch buffers; :class:`PipelineService` fronts them
with a micro-batching queue, admission control with load shedding and
graceful drain.  With ``workers > 0`` a :class:`WorkerSupervisor` forks the warm service into
supervised worker processes (heartbeats, timeouts, respawn, bounded
retry, per-pipeline circuit breaker) that exchange arrays through one
unnamed shared-memory arena per worker (:mod:`repro.serve.shm`).  :func:`make_server`
wraps it all in a stdlib HTTP API (see ``docs/serving.md``).
"""

from .admission import AdmissionController
from .batching import MicroBatchQueue, ServeRequest
from .host import (
    HostConfig,
    PipelineHost,
    PipelineService,
    ServeConfig,
    ServeResult,
)
from .http import ServeHTTPServer, make_server
from .shm import Segment, ShmRegistry, sweep_stale
from .supervisor import (
    CircuitBreaker,
    WorkerOutcome,
    WorkerSupervisor,
    WorkerTierUnavailable,
)

__all__ = [
    "AdmissionController",
    "MicroBatchQueue",
    "ServeRequest",
    "HostConfig",
    "PipelineHost",
    "PipelineService",
    "ServeConfig",
    "ServeResult",
    "ServeHTTPServer",
    "make_server",
    "Segment",
    "ShmRegistry",
    "sweep_stale",
    "CircuitBreaker",
    "WorkerOutcome",
    "WorkerSupervisor",
    "WorkerTierUnavailable",
]
