"""Hardened execution: validate, retry, degrade — never die mid-pipeline.

:func:`execute_guarded` wraps the overlapped-tiling interpreter
(:func:`repro.runtime.execute_grouping`) with the protections a serving
system needs:

* **Upfront input validation** — names, shapes, and dtypes are checked
  against the pipeline's image declarations before any work starts
  (``INPUT_MISSING`` / ``INPUT_SHAPE`` / ``INPUT_DTYPE``).
* **Per-tile capture with bounded retry** — a tile that raises inside the
  thread pool is retried ``tile_retries`` times; persistent failure
  surfaces as ``TILE_FAIL`` with group/tile coordinates and the original
  cause.
* **Per-group fallback to reference execution** — in degrade mode a group
  whose tiled execution failed (for any reason) is re-run stage-by-stage
  untiled, which is exactly the reference interpreter's semantics; the
  rest of the pipeline continues on the fallback's outputs.  A failed
  tiled group publishes nothing, so the fallback starts from clean state.
* **Optional non-finite scanning** — each group's freshly computed buffers
  can be scanned for NaN/Inf; findings trigger the same per-group fallback
  (or ``NUMERIC_NAN`` in strict mode).  If the reference rerun *also*
  produces non-finite values the pipeline genuinely computes them, and the
  outcome records that instead of failing.
* **Scratch memory cap** — estimated per-tile scratch footprint is checked
  *before* allocation; oversized tiles are halved along their largest
  dimension until they fit (``MEMORY_BUDGET`` if even 1-point tiles
  cannot).

The returned :class:`ExecutionReport` carries the outputs plus a
per-group audit trail of what actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dsl.pipeline import Pipeline
from ..obs import METRICS, TRACE
from ..errors import (
    MemoryBudgetError,
    NumericError,
    ReproError,
    TileExecutionError,
    error_code,
)
from ..fusion.grouping import Grouping
from ..poly.alignscale import GroupGeometry, compute_group_geometry
from ..runtime.executor import (
    KernelTier,
    _execute_group_untiled,
    _execute_one_group,
    _stage_region,
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
    "estimate_tile_scratch_bytes",
    "fit_tiles_to_memory_cap",
]


@dataclass(frozen=True)
class GuardPolicy:
    """Knobs of :func:`execute_guarded`."""

    #: per-tile bounded retries before a tile counts as failed
    tile_retries: int = 1
    #: fall back to reference execution for a failed group instead of
    #: raising (maps to the CLI's ``--degrade`` / ``--strict``)
    degrade: bool = True
    #: scan each group's outputs for NaN/Inf
    scan_nonfinite: bool = False
    #: cap on estimated per-tile scratch bytes (all threads combined);
    #: tiles shrink to fit before allocation
    memory_cap_bytes: Optional[int] = None
    #: the highest rung a group's kernel may stand on (default:
    #: ``NATIVE`` unless ``REPRO_KERNELS`` says otherwise)
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


def estimate_tile_scratch_bytes(
    pipeline: Pipeline,
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
) -> int:
    """Estimated bytes of per-tile scratch for one tile of the group: the
    expanded (overlapped) region of every member stage at its dtype."""
    radii = geom.expansion_radii()
    first = tuple(lo for lo, _ in geom.grid_bounds)
    total = 0
    for stage in geom.stages:
        bounds = _stage_region(
            geom, stage, pipeline, first, tile_sizes, radii, True
        )
        if bounds is None:
            continue
        volume = 1
        for lo, hi in bounds:
            volume *= hi - lo + 1
        total += volume * stage.scalar_type.np_dtype.itemsize
    return total


def fit_tiles_to_memory_cap(
    pipeline: Pipeline,
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    cap_bytes: int,
    nthreads: int = 1,
) -> Tuple[int, ...]:
    """Shrink ``tile_sizes`` (halving the largest dimension first) until
    ``nthreads`` concurrent tiles of scratch fit under ``cap_bytes``.

    Raises :class:`MemoryBudgetError` if even 1-point tiles exceed the
    cap — the group cannot be tiled within budget at all.
    """
    tiles = list(tile_sizes)
    while True:
        est = estimate_tile_scratch_bytes(pipeline, geom, tiles) * nthreads
        if est <= cap_bytes:
            return tuple(tiles)
        candidates = [g for g, t in enumerate(tiles) if t > 1]
        if not candidates:
            raise MemoryBudgetError(
                f"group scratch needs ~{est} bytes even at 1-point tiles, "
                f"over the {cap_bytes}-byte cap",
                estimated_bytes=est,
                cap_bytes=cap_bytes,
                stages=[s.name for s in geom.stages],
            )
        g = max(candidates, key=lambda i: tiles[i])
        tiles[g] = max(1, tiles[g] // 2)


def _nonfinite_stages(
    members, buffers, pipeline: Pipeline
) -> List[str]:
    """Member stages whose (float) buffers contain NaN/Inf."""
    bad = []
    for stage in pipeline.stages:
        if stage not in members:
            continue
        buf = buffers.get(stage.name)
        if buf is None or buf.data.dtype.kind != "f":
            continue
        if not np.isfinite(buf.data).all():
            bad.append(stage.name)
    return bad


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
    error of the first failing group propagates (``TILE_FAIL``,
    ``NUMERIC_NAN``, ``MEMORY_BUDGET``, …).

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
        """Re-run the group untiled over full domains — the reference
        interpreter's semantics — with fault injection suspended so the
        degraded path cannot itself be sabotaged."""
        if observing:
            METRICS.inc("repro_degraded_groups_total", code=code)
        with TRACE.span(
            "reference-fallback", index=outcome.group_index, code=code,
        ), faults.suspended():
            _execute_group_untiled(
                pipeline, members, buffers, KernelTier.INTERPRET
            )
        outcome.mode = "reference-fallback"
        outcome.error_code = code

    def run_group(gi, members, tiles, buffers):
        outcome = GroupOutcome(
            group_index=gi, stages=sorted(s.name for s in members),
            mode="tiled", tile_sizes=tuple(tiles),
        )
        try:
            run_tiles: Sequence[int] = tiles
            if policy.memory_cap_bytes is not None:
                geom = compute_group_geometry(pipeline, members)
                if geom is not None and len(tiles) == geom.ndim:
                    run_tiles = fit_tiles_to_memory_cap(
                        pipeline, geom, tiles,
                        policy.memory_cap_bytes, nthreads,
                    )
                    if tuple(run_tiles) != tuple(tiles):
                        outcome.note = (
                            f"tiles shrunk {list(tiles)} -> "
                            f"{list(run_tiles)} for memory cap"
                        )
                        outcome.tile_sizes = tuple(run_tiles)
            outcome.mode = _execute_one_group(
                pipeline, members, run_tiles, buffers, nthreads,
                policy.kernels, group_index=gi,
                tile_retries=policy.tile_retries,
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
            if not outcome.note:
                outcome.note = str(exc)[:200]

        if policy.scan_nonfinite:
            bad = _nonfinite_stages(members, buffers, pipeline)
            if bad and outcome.mode != "reference-fallback":
                if not policy.degrade:
                    raise NumericError(
                        f"non-finite values in stages {bad} of "
                        f"group {gi}",
                        group_index=gi,
                        stages=bad,
                    )
                fall_back(outcome, members, buffers, NumericError.code)
                bad = _nonfinite_stages(members, buffers, pipeline)
            if bad and outcome.mode == "reference-fallback":
                outcome.note = (
                    f"non-finite values in {bad} (also in "
                    f"reference — genuine pipeline output)"
                )
        outcomes.append(outcome)
        attrs = {"mode": outcome.mode}
        if outcome.error_code:
            attrs["error_code"] = outcome.error_code
        return attrs

    outputs = _walk_groups(
        pipeline, grouping, inputs, nthreads,
        "execute_guarded", "guarded", run_group,
    )
    return ExecutionReport(outputs=outputs, outcomes=outcomes)
