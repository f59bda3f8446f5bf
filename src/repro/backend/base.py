"""The backend abstraction: machine descriptions and their cost models.

A :class:`Backend` bundles what differs between target architectures
*for the scheduler*:

* the **machine presets** it can schedule for (``machines()``),
* the **group cost model** — ``COST(H)`` with the architecture's tile
  hierarchy baked in (``group_cost``).

Two backends ship: :class:`~repro.backend.cpu.CpuBackend` (the paper's
single-level cache model) and :class:`~repro.backend.gpu.GpuBackend`
(the two-level block/warp tile model of the GPU follow-up paper).
Execution is not part of the seam: every schedule, whichever model
produced it, runs on the one executor in :mod:`repro.runtime`.

Machines resolve backends structurally — :func:`backend_for_machine`
keys on the machine description's type, so a
:class:`~repro.model.machine.GpuMachine` can never be priced by the CPU
cost model or vice versa.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Optional

from ..model.cost import GroupCost
from ..model.machine import GpuMachine, Machine

__all__ = [
    "Backend",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "get_machine",
    "resolve_machine",
    "machine_names",
    "backend_for_machine",
    "backend_name_for",
    "machine_digest",
    "backends_json",
    "machines_json",
]


class Backend:
    """Base class of the backend registry (see module docstring)."""

    #: stable registry name (``repro --backend <name>``)
    name: str = "?"

    def machines(self) -> Dict[str, object]:
        """Machine presets this backend schedules for, keyed by the
        stable names ``--machine`` accepts."""
        raise NotImplementedError

    def default_machine_name(self) -> str:
        """The preset used when ``--backend`` is given without
        ``--machine``."""
        raise NotImplementedError

    def owns_machine(self, machine: object) -> bool:
        """Whether ``machine`` (a description instance) belongs to this
        backend's architecture family."""
        raise NotImplementedError

    def group_cost(
        self,
        pipeline,
        members: Iterable,
        machine,
        ncores: Optional[int] = None,
        weights=None,
        halo_reuse: bool = False,
    ) -> GroupCost:
        """``COST(H)`` under this backend's tile hierarchy."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Registry row for ``repro list --backends``."""
        return {
            "name": self.name,
            "machines": sorted(self.machines()),
            "default_machine": self.default_machine_name(),
        }


#: backend name -> instance, in registration order (cpu first)
BACKENDS: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add ``backend`` to the registry (idempotent by name)."""
    BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        ) from None


def backend_for_machine(machine: object) -> Backend:
    """The backend whose architecture family ``machine`` belongs to."""
    for backend in BACKENDS.values():
        if backend.owns_machine(machine):
            return backend
    raise TypeError(
        f"no registered backend owns machine type "
        f"{type(machine).__name__!r}"
    )


def backend_name_for(machine: object) -> str:
    return backend_for_machine(machine).name


def get_machine(name: str) -> object:
    """Resolve a machine preset by its stable name across all backends."""
    for backend in BACKENDS.values():
        presets = backend.machines()
        if name in presets:
            return presets[name]
    raise KeyError(
        f"unknown machine {name!r}; registered: {machine_names()}"
    )


def resolve_machine(
    backend: Optional[str] = None, machine: Optional[str] = None
) -> object:
    """Resolve ``--backend`` / ``--machine`` to a machine description.

    Either alone implies the other (a machine names its owning backend
    structurally; a backend has a default machine; neither means
    ``xeon``); both together are checked for membership, so ``--backend
    gpu --machine xeon`` is refused instead of pricing a CPU with warp
    tiles.  Raises ``KeyError`` for an unknown name and ``ValueError``
    for a mismatched pair.
    """
    if backend is None:
        return get_machine(machine or "xeon")
    owner = get_backend(backend)
    presets = owner.machines()
    if machine is None:
        machine = owner.default_machine_name()
    if machine not in presets:
        raise ValueError(
            f"machine {machine!r} does not belong to backend {backend!r}; "
            f"its presets: {sorted(presets)}"
        )
    return presets[machine]


def machine_names() -> List[str]:
    """Every registered machine preset name, sorted."""
    names: List[str] = []
    for backend in BACKENDS.values():
        names.extend(backend.machines())
    return sorted(names)


def machine_digest(machine: object) -> str:
    """Stable digest of *every* field of a machine description.

    Folded into the schedule-cache key so a schedule computed for one
    machine (or one backend's tile hierarchy) can never be served for
    another — the GPU analogue of the extents digest: any capacity or
    weight change invalidates cached schedules instead of silently
    reusing tile sizes derived for different budgets.
    """
    h = hashlib.sha256()
    h.update(f"type:{type(machine).__name__}\0".encode())
    for f in dataclasses.fields(machine):
        h.update(f"{f.name}={getattr(machine, f.name)!r}\0".encode())
    return h.hexdigest()[:16]


def backends_json() -> List[Dict[str, object]]:
    """Machine-readable backend registry (``repro list --backends``)."""
    return [backend.describe() for backend in BACKENDS.values()]


def machines_json() -> List[Dict[str, object]]:
    """Machine-readable machine registry (``repro list --machines``)."""
    rows: List[Dict[str, object]] = []
    for backend in BACKENDS.values():
        for key in sorted(backend.machines()):
            m = backend.machines()[key]
            row: Dict[str, object] = {
                "key": key,
                "backend": backend.name,
                "name": m.name,
                "digest": machine_digest(m),
            }
            if isinstance(m, GpuMachine):
                row.update({
                    "num_sms": m.num_sms,
                    "warp_width": m.warp_width,
                    "shared_mem_per_sm": m.shared_mem_per_sm,
                    "register_file_per_sm": m.register_file_per_sm,
                    "innermost_tile_size": m.innermost_tile_size,
                })
            elif isinstance(m, Machine):
                row.update({
                    "num_cores": m.num_cores,
                    "l1_cache": m.l1_cache,
                    "l2_cache": m.l2_cache,
                    "innermost_tile_size": m.innermost_tile_size,
                })
            rows.append(row)
    return rows
