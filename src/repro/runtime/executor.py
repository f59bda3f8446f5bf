"""NumPy interpreter for pipelines: reference and overlapped-tiled modes.

Two entry points:

* :func:`execute_reference` — every stage over its full domain, in
  topological order.  The semantic ground truth.
* :func:`execute_grouping` — execute a :class:`~repro.fusion.Grouping` the
  way PolyMage's generated code does (Fig. 3 of the paper): the tile-space
  loops of each fused group are shared, each tile computes the expanded
  (overlapped) region of every member stage into per-tile scratch buffers,
  live-outs write their base tile to full buffers, and tiles are
  independent — optionally run on a thread pool, which is exactly what the
  broken inter-tile dependences of overlapped tiling permit.  Per-tile
  stage bodies run as compiled NumPy kernels
  (:mod:`repro.runtime.kernelcache`) with pooled scratch arrays by
  default; ``compile_kernels=False`` restores pure interpretation.

Outputs of the two modes agree except for floating-point association
noise; the integration test suite checks this for every benchmark pipeline
and scheduling strategy.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dsl.function import Function, Op, Reduction
from ..dsl.pipeline import Pipeline
from ..errors import (
    InputDtypeError,
    InputMissingError,
    InputShapeError,
    TileExecutionError,
    error_code,
    is_retryable,
)
from ..obs import METRICS, TRACE
from ..fusion.grouping import Grouping
from ..poly.alignscale import GroupGeometry, compute_group_geometry
from ..poly.overlap import reuse_carry_dim
from ..resilience.faults import maybe_fail
from .buffers import Buffer, BufferPool, PoolGroup
from .evalexpr import evaluate_cases, evaluate_expr, make_index_grids
from .kernelcache import (
    GroupKernel,
    StageKernel,
    fusion_enabled,
    get_group_kernel,
    stage_kernels,
)

__all__ = [
    "execute_reference",
    "execute_grouping",
    "halo_reuse_enabled",
    "shared_executor",
    "shutdown_shared_executors",
    "reset_shared_executors_after_fork",
]


def halo_reuse_enabled(override: Optional[bool] = None) -> bool:
    """Whether inter-tile halo reuse is enabled.

    ``override`` (from an API argument or the CLI's ``--no-reuse``) wins;
    otherwise the ``REPRO_NO_REUSE`` environment variable turns reuse off
    when set to ``1``/``true``/``yes``/``on``.  With reuse on, each worker
    chunk carries the computed window of every materialised stage from one
    tile to the next adjacent tile and recomputes only the strip the
    previous tile's expanded region did not cover — the redundant-overlap
    work the cost model charges per tile (``OVERLAPSIZE``) is then paid
    only once per run of adjacent tiles.
    """
    if override is not None:
        return bool(override)
    knob = os.environ.get("REPRO_NO_REUSE", "").strip().lower()
    return knob not in ("1", "true", "yes", "on")

#: Rows of the outermost reduction dimension processed per chunk, bounding
#: the temporary index arrays a reduction materialises.
_REDUCTION_CHUNK = 256

#: Chunks handed to the thread pool per worker when the grid has rows to
#: spare.  One future per *tile* costs a submit/dispatch round-trip per
#: tile; one chunk per worker cannot load-balance the cleanup wave.  A
#: small multiple keeps scheduling overhead bounded while the chunk-size
#: imbalance (at most one row) stays within what :mod:`repro.model.cost`
#: assumes about cleanup-wave idling.
_CHUNKS_PER_WORKER = 4

#: process-global persistent thread pools, keyed by worker count.  One
#: ``ThreadPoolExecutor`` per distinct ``nthreads`` ever requested — a
#: handful of sizes at most — created lazily and kept for the process
#: lifetime, so steady-state executions pay zero pool setup/teardown.
_SHARED_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_SHARED_EXECUTORS_LOCK = threading.Lock()


def shared_executor(nthreads: int) -> ThreadPoolExecutor:
    """The process-global persistent pool with ``nthreads`` workers.

    :func:`execute_grouping` used to construct (and tear down) a fresh
    ``ThreadPoolExecutor`` per fused group; the serve layer executes the
    same pipelines thousands of times, where that setup cost is pure
    waste.  Pools returned here are never shut down mid-process (worker
    threads are created lazily and idle ones cost nothing); callers that
    need explicit teardown — tests, a draining service — call
    :func:`shutdown_shared_executors`.
    """
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    with _SHARED_EXECUTORS_LOCK:
        pool = _SHARED_EXECUTORS.get(nthreads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=nthreads,
                thread_name_prefix=f"repro-exec{nthreads}",
            )
            _SHARED_EXECUTORS[nthreads] = pool
        return pool


def shutdown_shared_executors(wait: bool = True) -> None:
    """Shut down and drop every process-global pool (tests, service
    shutdown).  Subsequent executions lazily create fresh pools."""
    with _SHARED_EXECUTORS_LOCK:
        pools = list(_SHARED_EXECUTORS.values())
        _SHARED_EXECUTORS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


def reset_shared_executors_after_fork() -> None:
    """Forget every inherited pool in a freshly forked child.

    The pools' worker threads do not exist on the child's side of a
    ``fork()`` — calling ``shutdown(wait=True)`` on one would block
    forever, and submitting to it would queue work nobody runs.  The
    lock is replaced too, in case another thread of the parent held it
    at the instant of the fork.  Fresh pools are created lazily.
    """
    global _SHARED_EXECUTORS_LOCK
    _SHARED_EXECUTORS_LOCK = threading.Lock()
    _SHARED_EXECUTORS.clear()


def _input_buffers(
    pipeline: Pipeline, inputs: Mapping[str, np.ndarray]
) -> Dict[str, Buffer]:
    expected = sorted(img.name for img in pipeline.images)
    buffers: Dict[str, Buffer] = {}
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
        buffers[img.name] = Buffer(
            arr.astype(img.scalar_type.np_dtype, copy=False),
            (0,) * len(shape),
        )
    return buffers


def _compute_function_region(
    pipeline: Pipeline,
    stage: Function,
    bounds: Sequence[Tuple[int, int]],
    buffers: Mapping[str, Buffer],
    kernel: Optional[StageKernel] = None,
    pool: Optional[BufferPool] = None,
) -> Buffer:
    """Evaluate a (non-reduction) stage over an inclusive region.

    With a compiled ``kernel`` the region is computed by one call into
    generated NumPy code instead of a tree walk; a ``pool`` additionally
    lets kernels that support in-place stores write into a recycled
    scratch array.  Without a kernel this is the interpreter path,
    byte-for-byte the pre-compilation behaviour.
    """
    grids = make_index_grids(bounds)
    shape = tuple(hi - lo + 1 for lo, hi in bounds)
    dtype = stage.scalar_type.np_dtype
    origin = tuple(lo for lo, _ in bounds)
    if kernel is not None:
        out = (
            pool.acquire(shape, dtype)
            if pool is not None and kernel.uses_out
            else None
        )
        values = kernel.fn(grids, pipeline.env, buffers, out)
        if out is not None and values is not out:
            pool.reclaim(out)
        return Buffer(values, origin)
    env: Dict[str, object] = dict(pipeline.env)
    for var, grid in zip(stage.variables, grids):
        env[var.name] = grid
    values = evaluate_cases(stage.defn, env, buffers, shape, dtype)
    return Buffer(values, origin)


def _compute_reduction(
    pipeline: Pipeline,
    stage: Reduction,
    buffers: Mapping[str, Buffer],
) -> Buffer:
    """Evaluate a reduction over its full reduction domain."""
    dom = pipeline.domain(stage)
    out = Buffer.for_region(dom, stage.scalar_type.np_dtype)
    out.data.fill(stage.default)
    rdom = stage.resolve_reduction_domain(pipeline.env)

    # Accumulator scaffolding (bounds mask, scratch comparison array,
    # relative-index arrays) reused across chunks and rules whenever the
    # broadcast shape repeats — all full-size chunks share one set instead
    # of reallocating it per chunk.
    scaffold: Dict[tuple, tuple] = {}

    r0_lo, r0_hi = rdom[0]
    for chunk_lo in range(r0_lo, r0_hi + 1, _REDUCTION_CHUNK):
        chunk_hi = min(chunk_lo + _REDUCTION_CHUNK - 1, r0_hi)
        bounds = [(chunk_lo, chunk_hi)] + list(rdom[1:])
        grids = make_index_grids(bounds)
        env: Dict[str, object] = dict(pipeline.env)
        for var, grid in zip(stage.reduction_variables, grids):
            env[var.name] = grid
        for rule in stage.defn:
            idx = [
                np.asarray(evaluate_expr(i, env, buffers), dtype=np.int64)
                for i in rule.indices
            ]
            val = np.asarray(evaluate_expr(rule.value, env, buffers))
            arrays = np.broadcast_arrays(val, *idx)
            val_b = arrays[0]
            idx_b = arrays[1:]
            key = (val_b.shape, len(idx_b))
            cached = scaffold.get(key)
            if cached is None:
                mask = np.empty(val_b.shape, dtype=bool)
                tmp = np.empty(val_b.shape, dtype=bool)
                rel = [
                    np.empty(val_b.shape, dtype=np.int64) for _ in idx_b
                ]
                scaffold[key] = (mask, tmp, rel)
            else:
                mask, tmp, rel = cached
            mask.fill(True)
            for d, coords in enumerate(idx_b):
                np.subtract(coords, out.origin[d], out=rel[d])
                np.greater_equal(rel[d], 0, out=tmp)
                np.logical_and(mask, tmp, out=mask)
                np.less(rel[d], out.data.shape[d], out=tmp)
                np.logical_and(mask, tmp, out=mask)
            target = tuple(r[mask] for r in rel)
            contrib = val_b[mask]
            if rule.op == Op.Sum:
                np.add.at(out.data, target, contrib)
            elif rule.op == Op.Max:
                np.maximum.at(out.data, target, contrib)
            else:
                np.minimum.at(out.data, target, contrib)
    return out


def _compute_stage_full(
    pipeline: Pipeline,
    stage: Function,
    buffers: Mapping[str, Buffer],
    kernel: Optional[StageKernel] = None,
) -> Buffer:
    if isinstance(stage, Reduction):
        return _compute_reduction(pipeline, stage, buffers)
    return _compute_function_region(
        pipeline, stage, pipeline.domain(stage), buffers, kernel=kernel
    )


def execute_reference(
    pipeline: Pipeline,
    inputs: Mapping[str, np.ndarray],
    keep_all: bool = False,
) -> Dict[str, np.ndarray]:
    """Run the pipeline untiled, stage by stage.

    Returns output arrays by stage name (all stages with ``keep_all``).
    """
    buffers = _input_buffers(pipeline, inputs)
    for stage in pipeline.stages:
        buffers[stage.name] = _compute_stage_full(pipeline, stage, buffers)
    wanted = (
        [s.name for s in pipeline.stages]
        if keep_all
        else [o.name for o in pipeline.outputs]
    )
    return {name: buffers[name].data for name in wanted}


# ---------------------------------------------------------------------------
# Tiled execution
# ---------------------------------------------------------------------------


def _chunk_tiles(
    tiles: List, nthreads: int, row_len: Optional[int] = None
) -> List[List]:
    """Partition ``tiles`` into contiguous chunks for the thread pool.

    The unit of parallel work is a *row*: ``row_len`` consecutive tiles
    (the tiles along the innermost walked grid dimension — under halo
    reuse the carry dimension, whose tiles share one seeded window);
    without ``row_len`` every tile is its own row.  Each chunk start costs
    the reuse path one seed, so rows are kept whole whenever there are
    enough of them to occupy every worker:

    * ``rows >= nthreads``: ``min(rows, _CHUNKS_PER_WORKER * nthreads)``
      chunks of whole rows, sizes differing by at most one row — the
      threaded walk seeds exactly as often as the serial one.
    * ``rows < nthreads``: rows are cut, ``nthreads`` runs in all, each
      row into ``nthreads // rows`` runs or one more (never more runs than
      it has tiles), runs of one row differing by at most one tile — at
      most ``nthreads - rows`` seeds more than the serial walk.

    Serial execution gets one chunk (no scheduling at all).
    """
    if nthreads <= 1 or len(tiles) <= 1:
        return [tiles]
    if not row_len or len(tiles) % row_len:
        row_len = 1
    rows = len(tiles) // row_len
    if rows >= nthreads:
        target = min(rows, _CHUNKS_PER_WORKER * nthreads)
        base, extra = divmod(rows, target)
        sizes = [
            (base + (1 if i < extra else 0)) * row_len for i in range(target)
        ]
    else:
        sizes = []
        runs, more = divmod(nthreads, rows)
        for r in range(rows):
            pieces = min(row_len, runs + (1 if r < more else 0))
            base, extra = divmod(row_len, pieces)
            sizes += [base + (1 if i < extra else 0) for i in range(pieces)]
    chunks: List[List] = []
    start = 0
    for size in sizes:
        chunks.append(tiles[start:start + size])
        start += size
    return chunks


def _stage_plan(
    geom: GroupGeometry, stage: Function, pipeline: Pipeline, radii
) -> List[Tuple[int, int, int, int, int, int, int]]:
    """Per-dimension region coefficients for ``stage``, flattened out of
    the geometry's ``Function``-keyed maps so the tile loop touches only
    plain integers: ``(g, num, den, left, right, dom_lo, dom_hi)``.

    Memoised per ``(stage, radii)`` on the geometry (geometries are
    themselves memoised per member set), so hot repeat callers — the
    guard's reference re-execution, the cache simulator, the serve layer
    re-running a warm plan — stop rebuilding the plan per call.
    """
    rad = radii[stage]
    key = (stage, tuple(rad))
    hit = geom._stage_plan_cache.get(key)
    if hit is not None:
        return hit
    dom = pipeline.domain(stage)
    plan = []
    for j, g in enumerate(geom.align[stage]):
        left, right = rad[g]
        s = geom.scale[stage][j]
        plan.append(
            (g, s.numerator, s.denominator, left, right,
             dom[j][0], dom[j][1])
        )
    geom._stage_plan_cache[key] = plan
    return plan


def _region_from_plan(
    plan, tile_lo: Sequence[int], tile_sizes: Sequence[int], expand: bool
) -> Optional[List[Tuple[int, int]]]:
    """The stage-coordinate region one tile must compute
    (``expand=True``: including overlap; ``False``: the base tile only).
    ``None`` when the region is empty."""
    bounds: List[Tuple[int, int]] = []
    for g, num, den, left, right, dlo, dhi in plan:
        if expand:
            rlo = tile_lo[g] - left
            rhi = tile_lo[g] + tile_sizes[g] - 1 + right
        else:
            rlo = tile_lo[g]
            rhi = tile_lo[g] + tile_sizes[g] - 1
        # Stage points p whose scaled position p*s lies in [rlo, rhi + 1):
        # lo = ceil(rlo / s), hi = ceil((rhi + 1) / s) - 1.  With this
        # convention the base regions of consecutive tiles partition the
        # stage domain exactly for any rational scale; expanded regions
        # additionally floor the lower bound for safety.  Pure integer
        # arithmetic on the scale's numerator/denominator — Fraction
        # division per tile per stage dimension is a hot-path cost.
        a = rlo * den
        lo = -((-a) // num)
        if expand:
            floor_lo = a // num
            if floor_lo < lo:
                lo = floor_lo
        hi = -((-(rhi + 1) * den) // num) - 1
        if lo < dlo:
            lo = dlo
        if hi > dhi:
            hi = dhi
        if lo > hi:
            return None
        bounds.append((lo, hi))
    return bounds


def _stage_region(
    geom: GroupGeometry,
    stage: Function,
    pipeline: Pipeline,
    tile_lo: Sequence[int],
    tile_sizes: Sequence[int],
    radii,
    expand: bool,
) -> Optional[List[Tuple[int, int]]]:
    """One-shot form of :func:`_region_from_plan` (building the plan per
    call) for callers outside the tile loop — the guard's reference
    re-execution, the cache simulator, tests."""
    plan = _stage_plan(geom, stage, pipeline, radii)
    return _region_from_plan(plan, tile_lo, tile_sizes, expand)


class _CarryState:
    """Per-chunk rolling halo-reuse state: the one carry step every tier
    (fused, per-stage, interpreter) drives per carried stage and tile.

    ``entries`` maps a carried materialised stage name to a tuple
    ``(buffer, bounds)``: the stage's *run window* (a :class:`Buffer`
    computed by the run's seed tile, spanning along the carry dimension
    to the expanded high bound of the run's last tile) and the region it
    covers.  ``run_end`` is the carry-dimension grid coordinate one past
    that last tile — the end of the run of adjacent tiles *this chunk*
    walks, set by the chunk loop, never past the chunk boundary.
    ``prev_lo`` is the previous tile's grid origin — ``None`` at chunk
    start and after an invalidation, which forces the next tile to
    re-seed.  ``tiles`` / ``saved`` accumulate the chunk's reuse metrics,
    flushed once per chunk; ``hit`` marks the tile in flight as having
    reused a window.
    """

    __slots__ = ("prev_lo", "run_end", "entries", "tiles", "saved", "hit")

    def __init__(self):
        self.prev_lo: Optional[Tuple[int, ...]] = None
        self.run_end = 0
        self.entries: Dict[str, Tuple[Buffer, list]] = {}
        self.tiles = 0
        self.saved = 0
        self.hit = 0

    def covers(self, name, bounds, axis, adjacent) -> Optional[Buffer]:
        """The carried window of ``name`` when this tile may consume it
        untouched — a *pure carry*: the tile is ``adjacent`` to the
        previous one and ``bounds`` lies inside the window along ``axis``
        (the stage's carry-dimension index; ``None`` when the stage is
        constant along it) and equals it on every other dimension.
        ``None`` when the stage must be (re)seeded."""
        ent = self.entries.get(name)
        if ent is None or not adjacent:
            return None
        held = ent[1]
        pts = 1
        for d, (lo, hi) in enumerate(bounds):
            if d == axis:
                if lo < held[d][0] or hi > held[d][1]:
                    return None
            elif held[d] != (lo, hi):
                return None
            pts *= hi - lo + 1
        self.saved += pts
        self.hit = 1
        return ent[0]

    def seed_bounds(self, bounds, plan, axis):
        """``bounds`` extended along ``axis`` to the expanded high bound
        (stage coordinates, clamped to the domain) of the run's last
        tile, so one stage-body call computes the whole run's window."""
        if axis is None:
            return bounds
        _, num, den, _, right, _, dom_hi = plan[axis]
        hi = -((-(self.run_end + right) * den) // num) - 1
        if hi > dom_hi:
            hi = dom_hi
        if hi <= bounds[axis][1]:
            return bounds
        bounds = list(bounds)
        bounds[axis] = (bounds[axis][0], hi)
        return bounds

    def store(self, name, buf: Buffer, bounds, pool: BufferPool) -> None:
        """Adopt a freshly seeded window, reclaiming the one it
        supersedes."""
        ent = self.entries.get(name)
        if ent is not None and ent[0].data is not buf.data:
            pool.reclaim(ent[0].data)
        self.entries[name] = (buf, bounds)

    def drop(self, name, pool: BufferPool) -> None:
        """Forget ``name``'s window (its region is empty at this tile)."""
        ent = self.entries.pop(name, None)
        if ent is not None:
            pool.reclaim(ent[0].data)

    def advance(self, tile_lo) -> None:
        """The tile at ``tile_lo`` completed."""
        self.prev_lo = tile_lo
        self.tiles += self.hit
        self.hit = 0

    def invalidate(self) -> None:
        """Drop every carried window — called on any tile failure, so a
        retry (and every later tile until the chain re-seeds) recomputes
        full windows instead of consuming possibly-poisoned scratch."""
        self.prev_lo = None
        self.hit = 0
        self.entries.clear()


def _execute_group_tiled(
    pipeline: Pipeline,
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    buffers: Dict[str, Buffer],
    nthreads: int,
    group_index: int = 0,
    tile_retries: int = 0,
    kernels: Optional[Mapping[str, StageKernel]] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
    group_kernel: Optional[GroupKernel] = None,
    halo_reuse: Optional[bool] = None,
) -> None:
    """Execute one fused group with overlapped tiling, updating
    ``buffers`` with its live-out arrays.

    When ``group_kernel`` is given, each tile is one call into the fused
    kernel (all member stages chained, intermediates inlined or held in
    pooled scratch — :mod:`repro.runtime.kernelcache`).  Otherwise stages
    present in ``kernels`` run their compiled kernel per tile (with
    tile-local scratch arrays recycled through a worker-local
    :class:`BufferPool`); absent stages are interpreted.  Tiles are batched
    into contiguous chunks — :func:`_chunk_tiles` — with one future per
    chunk rather than per tile.  Chunks run on ``executor`` when given
    (a persistent pool owned by the caller), else on the process-global
    :func:`shared_executor`; scratch pools come from ``pools`` when given
    (worker-local pools that stay warm across calls), else one fresh pool
    per chunk.

    With halo reuse enabled (``halo_reuse``, default on — see
    :func:`halo_reuse_enabled`), each chunk walks its tiles in *runs* of
    adjacent tiles along a *carry dimension* and computes every
    materialised stage at run granularity: the run's seed tile extends
    each stage's expanded region along the carry dimension to the
    expanded high bound of the run's last tile and computes that whole
    window in one stage-body call, so each overlap point is computed
    once per run (instead of once per tile) and the fixed per-call cost
    of the stage body is amortised across the run.  A run never extends
    past its chunk: :func:`_chunk_tiles` hands out whole grid rows
    whenever there are at least as many rows as workers (runs are then
    rows, at any thread count) and cuts a row only when there are fewer.
    Every later *adjacent* tile (same grid origin except the carry
    dimension, advanced by exactly one tile) whose region is contained
    in the carried window is a **pure carry** — the window is handed to
    consumers untouched, no recompute, no copy.  Chunk starts,
    non-adjacent steps, and regions that escape the carried window
    re-seed from the current tile to the run's end; a failed tile
    attempt invalidates the whole carry so its retry — and every tile
    until the chain re-seeds — computes fresh windows.  Carried values
    are bit-identical to per-tile recomputation: stage bodies are
    elementwise over their windows, and the out-of-domain clamped reads
    that *could* differ between window extents are masked by their
    ``Case`` conditions (the same invariant all tiers rely on).
    Reductions and single-tile grids disable reuse; direct-store
    live-outs stay per-tile so concurrent chunks never overlap writes.

    A tile that raises is retried up to ``tile_retries`` times, then the
    failure surfaces as a :class:`TileExecutionError` (code ``TILE_FAIL``)
    naming the group, the tile, and the original cause — also from inside
    the thread-pool path, where a bare exception would otherwise emerge as
    an opaque traceback out of a future.  Live-outs are published to
    ``buffers`` only after every tile succeeded, so a failed group leaves
    ``buffers`` untouched and a caller can fall back cleanly.
    """
    radii = geom.expansion_radii()
    liveouts = set(geom.liveouts)
    kernels = {} if kernels is None else kernels
    plans = {
        s.name: _stage_plan(geom, s, pipeline, radii) for s in geom.stages
    }
    out_buffers = {
        s.name: Buffer.for_region(pipeline.domain(s), s.scalar_type.np_dtype)
        for s in geom.liveouts
    }

    dim_ranges = [
        range(lo, hi + 1, tile_sizes[g])
        for g, (lo, hi) in enumerate(geom.grid_bounds)
    ]

    if group_kernel is not None:
        region_plans = [plans[n] for n in group_kernel.region_names]
        base_plans = [plans[n] for n in group_kernel.liveout_names]
        if METRICS.enabled:
            METRICS.inc("repro_kernel_fused_groups_total")

    # Halo reuse chains windows along the *carry dimension*
    # (:func:`~repro.poly.overlap.reuse_carry_dim` — the rule the cost
    # model prices): the grid dim consecutive tiles of a chunk advance
    # along.  Under reuse the tile walk runs that dim fastest (see the
    # tile enumeration below), so a chunk is a sequence of runs of
    # adjacent tiles; a run's seed tile computes each carried stage's
    # window for the whole run in one call — every overlap point is
    # computed once and the stage body's fixed cost is amortised across
    # the run — and every later tile of the run is a pure carry.  Only
    # pure function stages chain — reductions accumulate across the
    # domain and have no per-tile window to carry; a single-tile grid has
    # no carry dimension.
    cdim = -1
    if halo_reuse_enabled(halo_reuse) and not any(
        isinstance(s, Reduction) for s in geom.stages
    ):
        cdim = reuse_carry_dim(geom, tile_sizes)
    reuse = cdim >= 0
    if reuse:
        cstep = tile_sizes[cdim]
        # Plan index of the carry dim per stage, ``None`` when the stage
        # is constant along it (adjacent windows are equal — seed once,
        # carry for the whole run).
        carry_axis: Dict[str, Optional[int]] = {
            s.name: next(
                (j for j, ent in enumerate(plans[s.name]) if ent[0] == cdim),
                None,
            )
            for s in geom.stages
        }
        if group_kernel is not None:
            direct = set(group_kernel.direct_stores)
            # (region index, name, axis) per carried materialised member.
            # Direct-store stages write their base tile straight into
            # out_buffers and stay per-tile (run-extending them would
            # overlap concurrent chunks' writes); inlined stages follow
            # their consumers' regions automatically.
            fused_carry = [
                (i, n, carry_axis[n])
                for i, n in enumerate(group_kernel.region_names)
                if n not in direct
            ]
            reuse = bool(fused_carry)

    def follows(prev_lo: Tuple[int, ...], tile_lo: Tuple[int, ...]) -> bool:
        """``tile_lo`` is ``prev_lo`` advanced by exactly one tile along
        the carry dimension — the two tiles belong to one run."""
        return (
            tile_lo[cdim] == prev_lo[cdim] + cstep
            and tile_lo[:cdim] == prev_lo[:cdim]
            and tile_lo[cdim + 1:] == prev_lo[cdim + 1:]
        )

    def run_tile(
        tile_index: int,
        tile_lo: Tuple[int, ...],
        attempt: int,
        pool: BufferPool,
        carry: Optional[_CarryState],
    ) -> None:
        maybe_fail(
            "tile", detail=f"g{group_index}t{tile_index}a{attempt}"
        )
        adjacent = (
            carry is not None
            and carry.prev_lo is not None
            and follows(carry.prev_lo, tile_lo)
        )
        if group_kernel is not None:
            regions = [
                _region_from_plan(p, tile_lo, tile_sizes, True)
                for p in region_plans
            ]
            bases = [
                _region_from_plan(p, tile_lo, tile_sizes, False)
                for p in base_plans
            ]
            if carry is None:
                try:
                    group_kernel.fn(
                        regions, bases, buffers, out_buffers, pool
                    )
                finally:
                    pool.release_all()
                return
            call_regions = list(regions)
            carries: List[Optional[tuple]] = [None] * len(regions)
            seeds = []
            for i, name, axis in fused_carry:
                bounds = regions[i]
                if bounds is None:
                    carry.drop(name, pool)
                    continue
                buf = carry.covers(name, bounds, axis, adjacent)
                if buf is not None:
                    # Pure carry: hand the window to the kernel untouched
                    # and skip the stage body.
                    call_regions[i] = None
                    carries[i] = (buf.data, buf.origin)
                else:
                    # (Re)seed: the kernel computes the rest of the run's
                    # window in this call.
                    call_regions[i] = carry.seed_bounds(
                        bounds, region_plans[i], axis
                    )
                    seeds.append((i, name))
            results = group_kernel.fn(
                call_regions, bases, buffers, out_buffers, pool, carries
            )
            for i, name in seeds:
                carry.store(name, results[i], call_regions[i], pool)
            carry.advance(tile_lo)
            return
        scratch: Dict[str, Buffer] = {}
        lookup = _ChainLookup(scratch, buffers)
        try:
            for stage in geom.stages:
                name = stage.name
                plan = plans[name]
                bounds = _region_from_plan(plan, tile_lo, tile_sizes, True)
                if bounds is None:
                    if carry is not None:
                        carry.drop(name, pool)
                    continue
                result = None
                if carry is not None:
                    axis = carry_axis[name]
                    result = carry.covers(name, bounds, axis, adjacent)
                    if result is None:
                        bounds = carry.seed_bounds(bounds, plan, axis)
                if result is None:
                    result = _compute_function_region(
                        pipeline, stage, bounds, lookup,
                        kernel=kernels.get(name), pool=pool,
                    )
                    if carry is not None:
                        carry.store(name, result, bounds, pool)
                scratch[name] = result
                if stage in liveouts:
                    base = _region_from_plan(
                        plan, tile_lo, tile_sizes, False
                    )
                    if base is not None:
                        out_buffers[name].store_region(
                            base, result.read_region(base)
                        )
            if carry is not None:
                carry.advance(tile_lo)
        finally:
            if carry is None:
                # Live-out regions were copied into out_buffers above, so
                # the tile's scratch arrays can all go back for the next
                # tile.  Under reuse the carried windows must survive —
                # superseded ones were reclaimed individually above, and
                # the rest are released at chunk end.
                pool.release_all()

    def run_tile_captured(
        item: Tuple[int, Tuple[int, ...]],
        pool: BufferPool,
        carry: Optional[_CarryState],
    ) -> None:
        tile_index, tile_lo = item
        max_attempts = tile_retries + 1
        attempts = 0
        retryable = True
        for attempt in range(max_attempts):
            attempts = attempt + 1
            try:
                run_tile(tile_index, tile_lo, attempt, pool, carry)
                return
            except Exception as exc:  # noqa: BLE001 - rewrapped below
                last = exc
                if carry is not None:
                    # The failed attempt may have poisoned carried
                    # windows (partial strip copies, reclaimed scratch):
                    # drop the whole carry so the retry — and every tile
                    # until the chain re-seeds — recomputes full windows.
                    carry.invalidate()
                    pool.release_all()
                    if METRICS.enabled:
                        METRICS.inc("repro_halo_reuse_invalidations_total")
                if not is_retryable(exc):
                    # Deterministic failure (missing buffer, INPUT_*,
                    # memory budget): identical retries cannot succeed,
                    # so surface TILE_FAIL immediately with the true
                    # attempt count instead of burning the budget.
                    retryable = False
                    if METRICS.enabled:
                        METRICS.inc("repro_tile_nonretryable_total")
                    break
                if attempts < max_attempts and METRICS.enabled:
                    METRICS.inc("repro_tile_retries_total")
        if METRICS.enabled:
            METRICS.inc(
                "repro_tile_failures_total", code=error_code(last)
            )
        raise TileExecutionError(
            f"tile {tile_index} of group {group_index} failed after "
            f"{attempts} attempt(s)"
            f"{'' if retryable else ' (non-retryable)'}: {last}",
            group_index=group_index,
            tile_index=tile_index,
            tile_origin=tuple(tile_lo),
            cause=last,
            attempts=attempts,
            retryable=retryable,
        )

    # Chunk spans run on worker threads where the thread-local span stack
    # is empty — capture the group span here so they parent correctly.
    parent_span = TRACE.current() if TRACE.enabled else None
    if parent_span is not None:
        parent_span.set(fused=group_kernel is not None, halo_reuse=reuse)

    def run_chunk(chunk: List[Tuple[int, Tuple[int, ...]]]) -> None:
        # Worker-local scratch pool, so lock-free: the group's shared
        # PoolGroup when one was passed (warm across calls), else one
        # fresh pool per chunk.
        pool = pools.get() if pools is not None else BufferPool()
        carry = _CarryState() if reuse else None
        if carry is not None:
            # Where each tile's run of adjacent tiles ends *within this
            # chunk* (carry-dim coordinate one past the run's last tile):
            # the far edge of any window seeded at that tile.
            ends = [tile_lo[cdim] + cstep for _, tile_lo in chunk]
            for k in range(len(chunk) - 2, -1, -1):
                if follows(chunk[k][1], chunk[k + 1][1]):
                    ends[k] = ends[k + 1]
        observing = METRICS.enabled
        if observing:
            # Shared pools carry cumulative counters across chunks and
            # requests — flush only this chunk's delta.
            base = (pool.stat_reused, pool.stat_allocated,
                    pool.stat_reclaimed, pool.stat_evicted)
        with TRACE.span(
            "chunk", parent=parent_span, tiles=len(chunk),
            first_tile=chunk[0][0] if chunk else -1,
        ):
            try:
                for k, item in enumerate(chunk):
                    if carry is not None:
                        carry.run_end = ends[k]
                    run_tile_captured(item, pool, carry)
            finally:
                if carry is not None:
                    # Carried windows held the pool's arrays across
                    # tiles — hand them all back now the chunk is done.
                    carry.invalidate()
                    pool.release_all()
        if observing:
            METRICS.inc("repro_tiles_total", len(chunk))
            if carry is not None:
                if carry.tiles:
                    METRICS.inc(
                        "repro_halo_reuse_tiles_total", carry.tiles
                    )
                if carry.saved:
                    METRICS.inc(
                        "repro_halo_reuse_saved_points_total", carry.saved
                    )
            METRICS.inc("repro_pool_acquires_total",
                        pool.stat_reused - base[0], result="reused")
            METRICS.inc("repro_pool_acquires_total",
                        pool.stat_allocated - base[1], result="allocated")
            METRICS.inc("repro_pool_reclaims_total",
                        pool.stat_reclaimed - base[2])
            METRICS.inc("repro_pool_evictions_total",
                        pool.stat_evicted - base[3])

    if reuse and geom.ndim > 1:
        # Walk tiles with the carry dimension fastest so chunks run rows
        # of tiles adjacent along it (tile values are order-free for
        # function groups: every tile writes a disjoint base region).
        others = [r for d, r in enumerate(dim_ranges) if d != cdim]
        tiles = list(enumerate(
            c[:cdim] + (c[-1],) + c[cdim:-1]
            for c in itertools.product(*others, dim_ranges[cdim])
        ))
        row_len = len(dim_ranges[cdim])
    else:
        tiles = list(enumerate(itertools.product(*dim_ranges)))
        row_len = len(dim_ranges[-1]) if dim_ranges else None
    chunks = _chunk_tiles(tiles, nthreads, row_len=row_len)
    if nthreads > 1 and len(chunks) > 1:
        tpool = executor if executor is not None else shared_executor(
            nthreads
        )
        futures = [tpool.submit(run_chunk, chunk) for chunk in chunks]
        # Wait for *every* chunk before raising — matching the old
        # per-group pool's shutdown-on-exit semantics, and guaranteeing
        # no stray worker still writes out_buffers after we return.
        first_exc: Optional[BaseException] = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
    else:
        for chunk in chunks:
            run_chunk(chunk)

    buffers.update(out_buffers)


class _ChainLookup:
    """Two-level buffer lookup: tile scratch first, then full buffers."""

    __slots__ = ("first", "second")

    def __init__(self, first: Mapping[str, Buffer], second: Mapping[str, Buffer]):
        self.first = first
        self.second = second

    def get(self, name: str) -> Optional[Buffer]:
        buf = self.first.get(name)
        return buf if buf is not None else self.second.get(name)

    def __getitem__(self, name: str) -> Buffer:
        buf = self.get(name)
        if buf is None:
            raise KeyError(name)
        return buf


def _execute_one_group(
    pipeline: Pipeline,
    members,
    tiles: Sequence[int],
    buffers: Dict[str, Buffer],
    nthreads: int,
    group_index: int = 0,
    tile_retries: int = 0,
    kernels: Optional[Mapping[str, StageKernel]] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
    fuse_kernels: Optional[bool] = None,
    halo_reuse: Optional[bool] = None,
) -> str:
    """Execute a single group of a grouping, returning the mode used:
    ``"tiled"`` or ``"untiled"`` (groups without an overlap-tiling
    geometry run stage-by-stage over full domains)."""
    geom = compute_group_geometry(pipeline, members)
    if geom is None or len(members) == 1 and isinstance(
        next(iter(members)), Reduction
    ):
        for stage in pipeline.stages:
            if stage in members:
                buffers[stage.name] = _compute_stage_full(
                    pipeline, stage, buffers,
                    kernel=None if kernels is None
                    else kernels.get(stage.name),
                )
        return "untiled"
    if len(tiles) != geom.ndim:
        raise ValueError(
            f"group {[s.name for s in members]} needs {geom.ndim} tile "
            f"sizes, got {len(tiles)}"
        )
    # The fused tier rides on compilation being active (an empty kernel
    # map means --no-compile / REPRO_NO_COMPILE): fused-group kernel →
    # per-stage kernels → interpreter, degrading per group.
    group_kernel = None
    if kernels and len(geom.stages) > 1 and fusion_enabled(fuse_kernels):
        group_kernel = get_group_kernel(pipeline, geom)
    _execute_group_tiled(
        pipeline, geom, tiles, buffers, nthreads,
        group_index=group_index, tile_retries=tile_retries,
        kernels=kernels, executor=executor, pools=pools,
        group_kernel=group_kernel, halo_reuse=halo_reuse,
    )
    return "tiled"


def execute_grouping(
    pipeline: Pipeline,
    grouping: Grouping,
    inputs: Mapping[str, np.ndarray],
    nthreads: int = 1,
    tile_retries: int = 0,
    compile_kernels: Optional[bool] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
    fuse_kernels: Optional[bool] = None,
    halo_reuse: Optional[bool] = None,
) -> Dict[str, np.ndarray]:
    """Execute a grouping with overlapped tiling.

    Groups execute in topological order.  Groups without an overlap-tiling
    geometry (singleton reductions, or Halide-style groups that fuse a
    reduction) are executed stage-by-stage untiled — PolyMage likewise
    leaves reductions unoptimised (Sec. 6.2).

    By default every non-reduction stage is lowered once to a compiled
    NumPy kernel (:mod:`repro.runtime.kernelcache`) and each tile runs the
    kernel instead of re-walking the expression tree; a stage that fails
    to compile is interpreted after a ``KERNEL_COMPILE_FAIL`` warning.
    ``compile_kernels=False`` (the CLI's ``--no-compile``, or the
    ``REPRO_NO_COMPILE`` env knob) forces the pure-interpreter path for
    A/B timing.

    On top of per-stage kernels, each multi-stage group compiles to a
    single *fused* kernel so a tile makes one call for the whole group; a
    group that fails to fuse runs on per-stage kernels after one
    ``KERNEL_FUSE_FAIL`` warning.  ``fuse_kernels=False`` (the CLI's
    ``--no-fuse``, or ``REPRO_NO_FUSE``) disables only this fused tier,
    keeping per-stage kernels — the third arm of the A/B ladder.

    Within each worker chunk, adjacent tiles reuse the previous tile's
    computed halo instead of recomputing it (:func:`halo_reuse_enabled`;
    bit-identical by construction, all tiers).  ``halo_reuse=False`` (the
    CLI's ``--no-reuse``, or ``REPRO_NO_REUSE``) restores the full-halo
    per-tile path for A/B timing.

    Multi-threaded groups run their tile chunks on ``executor`` when the
    caller owns a persistent pool (the serve layer does), else on the
    lazily created process-global :func:`shared_executor` — either way
    no pool is constructed or torn down per group.  ``pools`` similarly
    lets a caller keep worker-local scratch pools warm across calls
    (:class:`repro.runtime.buffers.PoolGroup`).

    Failures are structured (:mod:`repro.errors`): missing or malformed
    inputs raise ``INPUT_*`` errors up front, and a tile that raises
    surfaces as ``TILE_FAIL`` with its group/tile coordinates after
    ``tile_retries`` bounded retries.  For validation, retry-then-degrade
    execution, and per-group fallback to the reference interpreter, see
    :func:`repro.resilience.guard.execute_guarded`.
    """
    if grouping.pipeline is not pipeline:
        raise ValueError("grouping was built for a different pipeline")
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    with TRACE.span(
        "prepare", pipeline=pipeline.name,
        compile_kernels=bool(compile_kernels)
        if compile_kernels is not None else "default",
    ):
        buffers = _input_buffers(pipeline, inputs)
        kernels = stage_kernels(pipeline, enabled=compile_kernels)

    observing = METRICS.enabled
    t_exec = time.perf_counter() if observing else 0.0
    with TRACE.span(
        "execute_grouping", pipeline=pipeline.name, nthreads=nthreads,
        groups=grouping.num_groups,
    ):
        for gi, (members, tiles) in enumerate(
            zip(grouping.groups, grouping.tile_sizes)
        ):
            t_group = time.perf_counter() if observing else 0.0
            with TRACE.span(
                "group", index=gi,
                stages=sorted(s.name for s in members),
                tiles=list(tiles),
            ) as gspan:
                mode = _execute_one_group(
                    pipeline, members, tiles, buffers, nthreads,
                    group_index=gi, tile_retries=tile_retries,
                    kernels=kernels, executor=executor, pools=pools,
                    fuse_kernels=fuse_kernels, halo_reuse=halo_reuse,
                )
                gspan.set(mode=mode)
            if observing:
                METRICS.observe(
                    "repro_group_seconds",
                    time.perf_counter() - t_group,
                    pipeline=pipeline.name,
                )
    if observing:
        METRICS.observe(
            "repro_execute_seconds", time.perf_counter() - t_exec,
            pipeline=pipeline.name, mode="strict",
        )

    return {o.name: buffers[o.name].data for o in pipeline.outputs}
