"""Backend subsystem: machine models and their group cost models.

See :mod:`repro.backend.base` for the abstraction, ``docs/backends.md``
for the full story.  Importing this package registers the built-in
backends (``cpu``, ``gpu``) in :data:`BACKENDS`.
"""

from .base import (
    BACKENDS,
    Backend,
    backend_for_machine,
    backend_name_for,
    backends_json,
    get_backend,
    get_machine,
    machine_digest,
    machine_names,
    machines_json,
    register_backend,
    resolve_machine,
)
from .cpu import CPU_BACKEND, CpuBackend
from .gpu import GPU_BACKEND, GpuBackend, gpu_group_cost

__all__ = [
    "BACKENDS",
    "Backend",
    "CpuBackend",
    "GpuBackend",
    "CPU_BACKEND",
    "GPU_BACKEND",
    "backend_for_machine",
    "backend_name_for",
    "backends_json",
    "get_backend",
    "get_machine",
    "gpu_group_cost",
    "machine_digest",
    "machine_names",
    "machines_json",
    "register_backend",
    "resolve_machine",
]
