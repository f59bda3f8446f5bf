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

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dsl.pipeline import Pipeline
from ..obs import METRICS, TRACE
from ..errors import (
    InputDtypeError,
    InputMissingError,
    InputShapeError,
    MemoryBudgetError,
    NumericError,
    ReproError,
    TileExecutionError,
    error_code,
)
from ..fusion.grouping import Grouping
from ..poly.alignscale import GroupGeometry, compute_group_geometry
from ..runtime.executor import (
    ExecOptions,
    _compute_stage_full,
    _execute_one_group,
    _input_buffers,
    _stage_region,
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

    #: validate input names/shapes/dtypes before executing
    validate: bool = True
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
    #: what the tiled executor runs on (default: everything on unless a
    #: ``REPRO_NO_*`` environment variable says otherwise)
    options: ExecOptions = field(default_factory=ExecOptions.resolve)


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


def validate_inputs(
    pipeline: Pipeline, inputs: Mapping[str, np.ndarray]
) -> None:
    """Check input names, shapes, and dtypes without copying any data.

    Raises the structured ``INPUT_*`` errors of :mod:`repro.errors`.
    Unknown extra keys are tolerated (callers may batch inputs for several
    pipelines into one mapping).
    """
    expected = sorted(img.name for img in pipeline.images)
    for img in pipeline.images:
        if img.name not in inputs:
            raise InputMissingError(
                f"missing input image {img.name!r}; expected inputs "
                f"{expected}, got {sorted(inputs)}",
                missing=img.name,
                expected=expected,
                provided=sorted(inputs),
            )
        arr = np.asarray(inputs[img.name])
        shape = pipeline.image_shape(img)
        if arr.shape != shape:
            raise InputShapeError(
                f"input {img.name!r} has shape {arr.shape}, expected {shape}",
                image=img.name,
                actual=arr.shape,
                expected=shape,
            )
        if arr.dtype.kind not in "buifc":
            raise InputDtypeError(
                f"input {img.name!r} has non-numeric dtype {arr.dtype}, "
                f"expected something convertible to "
                f"{img.scalar_type.np_dtype}",
                image=img.name,
                actual=str(arr.dtype),
                expected=str(img.scalar_type.np_dtype),
            )


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


def _run_reference_group(
    pipeline: Pipeline, members, buffers
) -> None:
    """Re-run one group's stages untiled over full domains — the reference
    interpreter's semantics — with fault injection suspended so the
    degraded path cannot itself be sabotaged."""
    with faults.suspended():
        for stage in pipeline.stages:
            if stage in members:
                buffers[stage.name] = _compute_stage_full(
                    pipeline, stage, buffers
                )


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
    """
    policy = policy or GuardPolicy()
    if grouping.pipeline is not pipeline:
        raise ValueError("grouping was built for a different pipeline")
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    with TRACE.span("prepare", pipeline=pipeline.name):
        if policy.validate:
            validate_inputs(pipeline, inputs)
        buffers = _input_buffers(pipeline, inputs)

    observing = METRICS.enabled
    t_exec = time.perf_counter() if observing else 0.0
    outcomes: List[GroupOutcome] = []
    with TRACE.span(
        "execute_guarded", pipeline=pipeline.name, nthreads=nthreads,
        groups=grouping.num_groups,
    ):
        for gi, (members, tiles) in enumerate(
            zip(grouping.groups, grouping.tile_sizes)
        ):
            names = sorted(s.name for s in members)
            outcome = GroupOutcome(
                group_index=gi, stages=names, mode="tiled",
                tile_sizes=tuple(tiles),
            )
            t_group = time.perf_counter() if observing else 0.0
            with TRACE.span(
                "group", index=gi, stages=names, tiles=list(tiles),
            ) as gspan:
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
                        policy.options, group_index=gi,
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
                    code = error_code(exc)
                    if observing:
                        METRICS.inc(
                            "repro_degraded_groups_total", code=code
                        )
                    with TRACE.span(
                        "reference-fallback", index=gi, code=code,
                    ):
                        _run_reference_group(pipeline, members, buffers)
                    outcome.mode = "reference-fallback"
                    outcome.error_code = code
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
                        if observing:
                            METRICS.inc(
                                "repro_degraded_groups_total",
                                code=NumericError.code,
                            )
                        with TRACE.span(
                            "reference-fallback", index=gi,
                            code=NumericError.code,
                        ):
                            _run_reference_group(
                                pipeline, members, buffers
                            )
                        outcome.mode = "reference-fallback"
                        outcome.error_code = NumericError.code
                        bad = _nonfinite_stages(members, buffers, pipeline)
                    if bad:
                        outcome.note = (
                            f"non-finite values in {bad} (also in "
                            f"reference — genuine pipeline output)"
                            if outcome.mode == "reference-fallback"
                            else outcome.note
                        )
                gspan.set(mode=outcome.mode)
                if outcome.error_code:
                    gspan.set(error_code=outcome.error_code)
            if observing:
                METRICS.observe(
                    "repro_group_seconds",
                    time.perf_counter() - t_group,
                    pipeline=pipeline.name,
                )
            outcomes.append(outcome)
    if observing:
        METRICS.observe(
            "repro_execute_seconds", time.perf_counter() - t_exec,
            pipeline=pipeline.name, mode="guarded",
        )

    outputs = {o.name: buffers[o.name].data for o in pipeline.outputs}
    return ExecutionReport(outputs=outputs, outcomes=outcomes)
