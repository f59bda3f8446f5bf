"""Hardened execution: validate, retry, degrade — never die mid-pipeline.

:func:`execute_guarded` wraps the overlapped-tiling executor
(:func:`repro.runtime.execute_grouping`) with the protections a serving
system needs:

* **Upfront input validation** — names, shapes, and dtypes are checked
  against the pipeline's image declarations before any work starts
  (``INPUT_MISSING`` / ``INPUT_SHAPE`` / ``INPUT_DTYPE``).
* **A failed native program walks group by group** — a run of native
  groups executes as one program (:func:`repro.runtime.executor._walk_groups`);
  when it raises — an injected ``tile`` fault before any C runs, a failed
  allocation — it publishes nothing, and its groups run one by one on
  the NumPy stage walk under the two protections below.
* **Per-step capture with bounded retry** — a step that raises inside the
  thread pool is retried ``tile_retries`` times; persistent failure
  surfaces as ``TILE_FAIL`` with group/tile coordinates and the original
  cause.
* **Per-group fallback to reference execution** — in degrade mode a group
  whose tiled execution failed (for any reason) is re-run stage-by-stage
  untiled through :func:`repro.runtime.execute_reference`'s own loop, with
  no kernel, native or NumPy; the rest of the pipeline continues on the
  fallback's outputs.  A failed tiled group publishes nothing, so the
  fallback starts from clean state.

The returned :class:`ExecutionReport` carries the outputs plus a
per-group audit trail of what actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..dsl.pipeline import Pipeline
from ..obs import METRICS, TRACE
from ..errors import ReproError, TileExecutionError, error_code
from ..fusion.grouping import Grouping
from ..runtime.executor import (
    KernelTier,
    _compute_reference,
    _execute_one_group,
    _walk_groups,
    validate_inputs,
)
from . import faults

__all__ = [
    "GuardPolicy",
    "GroupOutcome",
    "ExecutionReport",
    "validate_inputs",
    "execute_guarded",
]


@dataclass(frozen=True)
class GuardPolicy:
    """Knobs of :func:`execute_guarded`."""

    #: per-tile bounded retries before a tile counts as failed
    tile_retries: int = 1
    #: fall back to reference execution for a failed group instead of
    #: raising (maps to the CLI's ``--degrade`` / ``--strict``)
    degrade: bool = True
    #: the highest rung a group's kernel may stand on (default:
    #: ``NATIVE`` unless ``REPRO_KERNELS`` says ``stage``)
    kernels: KernelTier = field(default_factory=KernelTier.resolve)


@dataclass
class GroupOutcome:
    """Audit record for one group's execution."""

    group_index: int
    stages: List[str]
    #: "tiled" | "untiled" | "reference-fallback"
    mode: str
    tile_sizes: Tuple[int, ...] = ()
    #: stable code of the error that forced a fallback, if any
    error_code: Optional[str] = None
    note: str = ""


@dataclass
class ExecutionReport:
    """Outputs plus the per-group audit trail."""

    outputs: Dict[str, np.ndarray]
    outcomes: List[GroupOutcome] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return any(o.mode == "reference-fallback" for o in self.outcomes)

    def describe(self) -> str:
        lines = ["Guarded execution:"]
        for o in self.outcomes:
            line = f"  group {o.group_index} {{{', '.join(o.stages)}}}: {o.mode}"
            if o.error_code:
                line += f" [{o.error_code}]"
            if o.note:
                line += f" ({o.note})"
            lines.append(line)
        return "\n".join(lines)


def execute_guarded(
    pipeline: Pipeline,
    grouping: Grouping,
    inputs: Mapping[str, np.ndarray],
    nthreads: int = 1,
    policy: Optional[GuardPolicy] = None,
    executor=None,
    pools=None,
) -> ExecutionReport:
    """Execute ``grouping`` with validation, bounded retries, and
    per-group degradation to reference execution.

    In degrade mode (the default) this function only raises for invalid
    inputs or a caller contract violation — *execution* failures of any
    group, injected or genuine, are absorbed by re-running that group
    untiled.  In strict mode (``policy.degrade=False``) the structured
    error of the first failing group propagates (``TILE_FAIL``, …).

    ``executor`` (a persistent ``ThreadPoolExecutor``) and ``pools`` (a
    :class:`repro.runtime.buffers.PoolGroup` of warm worker-local scratch
    pools) are passed straight through to the tiled executor — the serve
    layer owns both so steady-state requests pay no pool setup; omitted,
    the executor falls back to its process-global shared pool.

    The walk itself — input validation, group order, spans, timing
    metrics, output gathering — is :func:`repro.runtime.execute_grouping`'s
    (``runtime.executor._walk_groups``); what is here is what a guarded
    run adds to each group.
    """
    policy = policy or GuardPolicy()
    observing = METRICS.enabled
    outcomes: List[GroupOutcome] = []

    def fall_back(outcome: GroupOutcome, members, buffers, code: str):
        """Re-run the group untiled over full domains with no kernel —
        :func:`repro.runtime.execute_reference`'s loop — with fault
        injection suspended so the degraded path cannot itself be
        sabotaged."""
        if observing:
            METRICS.inc("repro_degraded_groups_total", code=code)
        with TRACE.span(
            "reference-fallback", index=outcome.group_index, code=code,
        ), faults.suspended():
            _compute_reference(pipeline, members, buffers)
        outcome.mode = "reference-fallback"
        outcome.error_code = code

    def run_group(gi, members, tiles, buffers, tier=None, ran=None):
        outcome = GroupOutcome(
            group_index=gi, stages=sorted(s.name for s in members),
            mode=ran or "tiled", tile_sizes=tuple(tiles),
        )
        if ran is not None:
            # run by a native program: nothing to retry
            outcomes.append(outcome)
            return {"mode": ran}
        try:
            outcome.mode = _execute_one_group(
                pipeline, members, tiles, buffers, nthreads, tier,
                group_index=gi, tile_retries=policy.tile_retries,
                executor=executor, pools=pools,
            )
        except Exception as exc:  # noqa: BLE001 - rewrapped below
            if not policy.degrade:
                if isinstance(exc, ReproError):
                    raise
                raise TileExecutionError(
                    f"group {gi} failed: {exc}",
                    group_index=gi,
                    tile_index=-1,
                    cause=exc,
                ) from exc
            fall_back(outcome, members, buffers, error_code(exc))
            outcome.note = str(exc)[:200]
        outcomes.append(outcome)
        attrs = {"mode": outcome.mode}
        if outcome.error_code:
            attrs["error_code"] = outcome.error_code
        return attrs

    outputs = _walk_groups(
        pipeline, grouping, inputs, nthreads,
        "execute_guarded", "guarded", run_group, policy.kernels, executor,
        pools,
    )
    return ExecutionReport(outputs=outputs, outcomes=outcomes)
