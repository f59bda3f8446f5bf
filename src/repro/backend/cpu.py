"""The default CPU backend: the paper's cost model, unchanged.

``CpuBackend.group_cost`` delegates to
:func:`repro.model.cost.cpu_group_cost` — the exact Algorithm 2
implementation that predates the backend abstraction — so schedules
produced through the backend seam are bit-identical to the pre-refactor
DP (pinned against ``benchmarks/baselines/schedule_seed.json`` in
``tests/test_backend_bitident.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..model.cost import GroupCost, cpu_group_cost
from ..model.machine import AMD_OPTERON, XEON_HASWELL, Machine
from .base import Backend, register_backend

__all__ = ["CpuBackend", "CPU_BACKEND"]


class CpuBackend(Backend):
    """Single-level cache hierarchy (Sec. 4)."""

    name = "cpu"

    _MACHINES = {"xeon": XEON_HASWELL, "opteron": AMD_OPTERON}

    def machines(self) -> Dict[str, object]:
        return dict(self._MACHINES)

    def default_machine_name(self) -> str:
        return "xeon"

    def owns_machine(self, machine: object) -> bool:
        return isinstance(machine, Machine)

    def group_cost(
        self,
        pipeline,
        members: Iterable,
        machine,
        ncores: Optional[int] = None,
        weights=None,
        halo_reuse: bool = False,
    ) -> GroupCost:
        return cpu_group_cost(
            pipeline, members, machine, ncores=ncores, weights=weights,
            halo_reuse=halo_reuse,
        )


CPU_BACKEND = register_backend(CpuBackend())
