"""Pipeline execution: the untiled reference and overlapped tiling.

Two entry points:

* :func:`execute_reference` — every stage over its full domain, in
  topological order.  The semantic ground truth.
* :func:`execute_grouping` — execute a :class:`~repro.fusion.Grouping` the
  way PolyMage's generated code does (Fig. 3 of the paper): the tile-space
  loops of each fused group are shared, each tile computes the expanded
  (overlapped) region of every member stage into per-tile scratch buffers,
  live-outs write their base tile to full buffers, and tiles are
  independent — optionally run on a thread pool, which is exactly what the
  broken inter-tile dependences of overlapped tiling permit.  A group's
  walk is planned once per tiling; a :class:`KernelTier` selects what
  stands behind its :class:`~repro.runtime.kernelcache.GroupKernel`
  (native C or compiled NumPy stage kernels).  Adjacent
  tiles always reuse halos where the group's geometry allows.  Each run
  of consecutive native groups runs as one native program — one call
  per thread (:func:`_walk_groups`) — and every other group walks by
  itself, one kernel call per step (one or more adjacent tiles) of the
  NumPy kernels.

Every :class:`KernelTier` at every thread count produces output digests
equal to :func:`execute_reference`'s; the test suite pins this for every
benchmark pipeline, under fault injection and across the serve layer's
process boundary.
"""

from __future__ import annotations

import enum
import itertools
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
from ..resilience.faults import maybe_fail, suspended
from . import native
from .buffers import Buffer, BufferPool, PoolGroup
from .evalexpr import evaluate_cases, evaluate_expr, make_index_grids
from .kernelcache import (
    _RESOLVED_CACHE,
    GroupKernel,
    StageKernel,
    get_kernel,
    stage_kernels,
)

__all__ = [
    "KernelTier",
    "validate_inputs",
    "execute_reference",
    "execute_grouping",
    "grouping_kernels",
    "warm_group_kernels",
    "shared_executor",
    "shutdown_shared_executors",
    "reset_shared_executors_after_fork",
]


class KernelTier(enum.IntEnum):
    """What a group's kernel stands on, lower rung first.  A group whose
    native kernel cannot be built runs on the stage walk."""

    STAGE = 1   #: compiled NumPy stage kernels, stage body by stage body
    NATIVE = 2  #: one C kernel per eligible tiled group, untiled reduction

    @classmethod
    def resolve(cls) -> "KernelTier":
        """The tier the ``REPRO_KERNELS`` environment variable names (a
        tier name in any case, blanks stripped; ``ValueError`` on
        anything else), else ``NATIVE``.  The only place the executor's
        environment is read; resolved once per entry point (``repro
        run``, ``PipelineHost.warm``, a bare :func:`execute_grouping`), a
        plain value from there down."""
        kernels = os.environ.get("REPRO_KERNELS", "")
        name = kernels.strip().upper() or "NATIVE"
        if name not in cls.__members__:
            raise ValueError(
                f"REPRO_KERNELS={kernels!r}: expected one of "
                + ", ".join(t.name.lower() for t in reversed(cls))
            )
        return cls[name]


#: Rows of the outermost reduction dimension processed per chunk, bounding
#: the temporary index arrays a reduction materialises.
_REDUCTION_CHUNK = 256

#: Points the largest member region of one *step* — a span of adjacent
#: tiles executed by one kernel call, see :func:`_step_tiles` — may hold:
#: 2**16 float32 points = 256 KB, the ``xeon`` preset's L2, which the
#: schedule's tiles were sized against.  The schedule's cost model has no
#: per-call dispatch term; this is the executor compensating below it.
#: Load-bearing, not decoration.  Sweep (docs/runtime.md, "Steps"; ms per
#: warm request at scale 0.1 on one thread, per-tile walk / 16 K / 32 K /
#: 64 K / 128 K / 256 K / no budget): CP 18.2 / 15.3 / 13.6 / 13.7 /
#: 14.0 / 15.5 / 15.2, BG 13.2 / 12.7 / 12.6 / 13.0 / 12.8 / 12.7 / 12.8,
#: PB 16.5 / 16.0 / 15.8 / 15.1 / 16.4 / 18.3 / 19.6 — PB's 20-stage
#: group (direct-store live-out with seven stages inlined, 26 K points
#: per tile) is best at two tiles per step and *slower than the per-tile
#: walk* from 256 K up.  Keep the value only while PB does not lose.
#: Native steps run inside one chunk call and are cut the same way.
_STEP_POINT_BUDGET = 1 << 16

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


def _input_buffers(
    pipeline: Pipeline, inputs: Mapping[str, np.ndarray]
) -> Dict[str, Buffer]:
    """The validated inputs as origin-zero buffers, C-contiguous in each
    image's dtype (a no-op for the usual input): native kernels address
    buffers by pointer and shape."""
    validate_inputs(pipeline, inputs)
    buffers: Dict[str, Buffer] = {}
    for img in pipeline.images:
        data = np.ascontiguousarray(
            inputs[img.name], dtype=img.scalar_type.np_dtype
        )
        buffers[img.name] = Buffer(data, (0,) * data.ndim)
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
    scratch array.  Without a kernel the stage's expression tree is
    walked (:mod:`repro.runtime.evalexpr`): the reference semantics.
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


def _compute_reference(pipeline: Pipeline, members, buffers) -> None:
    """``members`` over their full domains in pipeline order, with no
    kernel: :func:`execute_reference`'s loop, and the guard's fallback."""
    for stage in pipeline.stages:
        if stage in members:
            buffers[stage.name] = _compute_stage_full(pipeline, stage, buffers)


def execute_reference(
    pipeline: Pipeline,
    inputs: Mapping[str, np.ndarray],
    keep_all: bool = False,
) -> Dict[str, np.ndarray]:
    """Run the pipeline untiled, stage by stage.

    Returns output arrays by stage name (all stages with ``keep_all``).
    """
    buffers = _input_buffers(pipeline, inputs)
    _compute_reference(pipeline, frozenset(pipeline.stages), buffers)
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
    """Partition ``tiles`` into contiguous chunks, one per worker.

    The unit of parallel work is a *row*: ``row_len`` consecutive tiles
    (the tiles along the innermost walked grid dimension — under halo
    reuse the carry dimension, whose tiles share one seeded window);
    without ``row_len`` every tile is its own row.  Each chunk start costs
    the reuse path one seed, so rows are kept whole whenever there are
    enough of them to give every worker one:

    * ``rows >= nthreads``: ``nthreads`` chunks of whole rows, sizes
      differing by at most one row — the threaded walk seeds exactly as
      often as the serial one.
    * ``rows < nthreads``: rows are cut, ``nthreads`` runs in all, each
      row into ``nthreads // rows`` runs or one more (never more runs than
      it has tiles), runs of one row differing by at most one tile — at
      most ``nthreads - rows`` seeds more than the serial walk.

    One chunk per worker: a native chunk is one call that holds no GIL,
    so more chunks would only mean more calls and more seeds, and the
    thread walking the group runs one of them itself.  Serial execution
    gets one chunk (no scheduling at all).
    """
    if nthreads <= 1 or len(tiles) <= 1:
        return [tiles]
    if not row_len or len(tiles) % row_len:
        row_len = 1
    rows = len(tiles) // row_len
    if rows >= nthreads:
        base, extra = divmod(rows, nthreads)
        sizes = [
            (base + (1 if i < extra else 0)) * row_len
            for i in range(nthreads)
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


def _walk_tiles(
    dim_ranges: Sequence[range], cdim: int
) -> Tuple[List[Tuple[int, Tuple[int, ...]]], Optional[int]]:
    """The grid's ``(tile index, tile origin)`` pairs in walk order, and
    the tiles per row.  With a carry dimension that dimension runs
    fastest, so chunks run rows of tiles adjacent along it (tile values
    are order-free for function groups: every tile writes a disjoint
    base region); without, the last dimension does."""
    if cdim >= 0:
        others = [r for d, r in enumerate(dim_ranges) if d != cdim]
        origins: Iterable[Tuple[int, ...]] = (
            c[:cdim] + (c[-1],) + c[cdim:-1]
            for c in itertools.product(*others, dim_ranges[cdim])
        )
        row_len = len(dim_ranges[cdim])
    else:
        origins = itertools.product(*dim_ranges)
        row_len = len(dim_ranges[-1]) if dim_ranges else None
    return list(enumerate(origins)), row_len


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


def _advanced(
    tile_lo: Tuple[int, ...], cdim: int, by: int
) -> Tuple[int, ...]:
    """``tile_lo`` moved ``by`` grid points along ``cdim``: the origin of
    the tile (or step) adjacent to one that starts at ``tile_lo`` and
    spans ``by`` points."""
    return tile_lo[:cdim] + (tile_lo[cdim] + by,) + tile_lo[cdim + 1:]


def _step_tiles(
    region_plans, tile_sizes: Sequence[int], cdim: int,
    row_len: Optional[int],
) -> int:
    """How many adjacent schedule tiles one kernel call covers: the
    largest ``k`` for which the biggest member's region of a step stays
    under :data:`_STEP_POINT_BUDGET`, taking a step's region as ``k``
    times the expanded region of one interior tile — and never more than
    the ``row_len`` tiles a carry row has.  ``1`` without a carry
    dimension (``cdim < 0``: a reduction in the group, a single-tile
    grid) — tiles are then never merged."""
    if cdim < 0:
        return 1
    points = 1
    for plan in region_plans:
        pts = 1
        for g, num, den, left, right, dlo, dhi in plan:
            span = -((-(tile_sizes[g] + left + right) * den) // num)
            pts *= min(span, dhi - dlo + 1)
        points = max(points, pts)
    return max(1, min(row_len, _STEP_POINT_BUDGET // points))


def _plan_steps(
    chunk: List[Tuple[int, Tuple[int, ...]]], k: int, cdim: int, cstep: int
) -> List[Tuple[int, Tuple[int, ...], int, int]]:
    """Cut a chunk's ``(tile index, tile origin)`` walk into *steps*
    ``(first tile index, first tile origin, tiles, run end)``.

    A *run* is a maximal sequence of tiles each adjacent to the previous
    along ``cdim`` (``cstep`` grid points apart, equal elsewhere); every
    run is cut into ``ceil(len / k)`` steps whose lengths differ by at
    most one tile, so no step crosses a run — or, the chunk being what is
    walked, a chunk — boundary.  ``run end`` is the carry-dimension
    coordinate one past the run's last tile: the far edge of any window
    seeded inside the run.  Without a carry dimension every tile is its
    own run and its own step."""
    steps = []
    start, n = 0, len(chunk)
    while start < n:
        end = start + 1
        run_end = 0
        if cdim >= 0:
            while end < n and chunk[end][1] == _advanced(
                chunk[end - 1][1], cdim, cstep
            ):
                end += 1
            run_end = chunk[end - 1][1][cdim] + cstep
        pieces = -(-(end - start) // k)
        base, extra = divmod(end - start, pieces)
        for i in range(pieces):
            ntiles = base + (1 if i < extra else 0)
            steps.append((*chunk[start], ntiles, run_end))
            start += ntiles
    return steps


class _CarryState:
    """The carry bookkeeping of one chunk, driven by the dry run that
    plans it (:meth:`_WalkPlan.plan_steps`).

    ``held`` maps a carried materialised stage name to the region of its
    *run window* — computed by the run's seeding step, spanning along the
    carry dimension to the expanded high bound of the run's last tile.
    ``next_lo`` is the grid origin of the step that would be adjacent to
    the one just planned — ``None`` at chunk start, which forces the
    first step to seed.  ``saved`` accumulates the carried-window points
    handed to later steps.
    """

    __slots__ = ("next_lo", "held", "saved")

    def __init__(self):
        self.next_lo: Optional[Tuple[int, ...]] = None
        self.held: Dict[str, list] = {}
        self.saved = 0

    def covers(self, name, bounds, axis, adjacent) -> bool:
        """Whether this step may consume ``name``'s carried window
        untouched — a *pure carry*: the step is ``adjacent`` to the
        previous one and ``bounds`` lies inside the window along ``axis``
        (the stage's carry-dimension index; ``None`` when the stage is
        constant along it) and equals it on every other dimension.
        ``False`` when the stage must be (re)seeded."""
        held = self.held.get(name)
        if held is None or not adjacent:
            return False
        pts = 1
        for d, (lo, hi) in enumerate(bounds):
            if d == axis:
                if lo < held[d][0] or hi > held[d][1]:
                    return False
            elif held[d] != (lo, hi):
                return False
            pts *= hi - lo + 1
        self.saved += pts
        return True

    @staticmethod
    def seed_bounds(bounds, plan, axis, run_end):
        """``bounds`` extended along ``axis`` to the expanded high bound
        (stage coordinates, clamped to the domain) of the run's last
        tile — ``run_end`` is the carry-dimension grid coordinate one
        past it — so one stage-body call computes the whole run's
        window."""
        if axis is None:
            return bounds
        _, num, den, _, right, _, dom_hi = plan[axis]
        hi = -((-(run_end + right) * den) // num) - 1
        if hi > dom_hi:
            hi = dom_hi
        if hi <= bounds[axis][1]:
            return bounds
        bounds = list(bounds)
        bounds[axis] = (bounds[axis][0], hi)
        return bounds

    def store(self, name, bounds) -> None:
        """Adopt a freshly seeded window, superseding any previous one."""
        self.held[name] = bounds

    def drop(self, name) -> bool:
        """Forget ``name``'s window (its region is empty at this step);
        whether there was one."""
        return self.held.pop(name, None) is not None


class _Step(NamedTuple):
    """One planned kernel call: ``ntiles`` schedule tiles from
    ``tile_index`` / ``tile_lo`` in a run ending at ``run_end``
    (:func:`_plan_steps`), and what the dry run decided for it.

    ``regions`` per region slot: the bounds to compute — a seed's
    extended to the run's end — or ``None`` (an empty region, or a pure
    carry); ``bases`` per live-out.  ``carried`` are the slots handed
    their window untouched, ``seeds`` the slots whose result becomes
    their window, ``drops`` the slots whose window ends here.
    ``reused`` / ``saved`` are the step's share of the reuse metrics."""

    tile_index: int
    tile_lo: Tuple[int, ...]
    ntiles: int
    run_end: int
    regions: Tuple[Optional[list], ...]
    bases: Tuple[Optional[list], ...]
    carried: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = ()
    drops: Tuple[int, ...] = ()
    reused: int = 0
    saved: int = 0


class _Chunk(NamedTuple):
    """One chunk of a walk plan: its planned steps, its schedule tiles
    and — for a native kernel — the step table a program runs it by
    (``GroupKernel.tabulate``)."""

    steps: Tuple[_Step, ...]
    ntiles: int
    table: Optional[object] = None


class _WalkPlan:
    """Everything :func:`_execute_group_tiled` derives from a group's
    geometry for one tiling, thread count and kernel —
    derived once (:func:`_walk_plan`) and only read after that: the
    stage plans, the carry dimension, the tile walk and its rows, the
    step length, the carried slots, the chunks, and each chunk's steps
    with their regions, bases and seed-or-carry decisions (a dry run of
    :class:`_CarryState`, :meth:`plan_steps`) — and, for a native
    kernel, each chunk's step table.

    ``step_tiles`` replaces :func:`_step_tiles`'s length (the self-check
    walks short steps); ``nthreads`` cuts the walk into chunks
    (:func:`_chunk_tiles`), without it :meth:`chunk` plans one."""

    def __init__(
        self,
        pipeline: Pipeline,
        geom: GroupGeometry,
        tile_sizes: Sequence[int],
        kernel: GroupKernel,
        nthreads: int = 0,
        step_tiles: Optional[int] = None,
    ):
        radii = geom.expansion_radii()
        plans = {
            s.name: _stage_plan(geom, s, pipeline, radii)
            for s in geom.stages
        }
        self.region_plans = [plans[n] for n in kernel.region_names]
        self.base_plans = [plans[n] for n in kernel.liveout_names]
        dim_ranges = [
            range(lo, hi + 1, tile_sizes[g])
            for g, (lo, hi) in enumerate(geom.grid_bounds)
        ]
        # Steps merge tiles, and halo reuse chains windows, along the
        # *carry dimension* (:func:`~repro.poly.overlap.reuse_carry_dim`
        # — the rule the cost model prices): the grid dim consecutive
        # tiles of a chunk advance along.  The tile walk runs that dim
        # fastest (:func:`_walk_tiles`), so a chunk is a sequence of runs
        # of adjacent tiles; a run's first step computes each carried
        # stage's window for the whole run in one call — every overlap
        # point is computed once and the stage body's fixed cost is
        # amortised across the run — and every later step of the run is
        # a pure carry.  Only pure function stages chain — reductions
        # accumulate across the domain and have no per-tile window to
        # carry; a single-tile grid has no carry dimension.
        cdim = -1
        if not any(isinstance(s, Reduction) for s in geom.stages):
            cdim = reuse_carry_dim(geom, tile_sizes)
        self.cdim = cdim
        self.cstep = tile_sizes[cdim] if cdim >= 0 else 0
        self.tiles, self.row_len = _walk_tiles(dim_ranges, cdim)
        if step_tiles is None:
            step_tiles = _step_tiles(
                self.region_plans, tile_sizes, cdim, self.row_len
            )
        self.step_tiles = step_tiles
        #: grid sizes of a step of n tiles, n <= step_tiles
        self.step_sizes = [
            tuple(n * t if g == cdim else t for g, t in enumerate(tile_sizes))
            for n in range(step_tiles + 1)
        ]
        #: (region index, name, axis) per carried stage; ``axis`` is the
        #: plan index of the carry dim, ``None`` when the stage is
        #: constant along it (adjacent windows are equal — seed once,
        #: carry for the whole run).  A kernel's direct-store stages
        #: (radius 0, scale 1: expanded region == base tile, so they
        #: recompute no halo) write each step's region straight into the
        #: live-out buffer and are not carried: the step is their whole
        #: evaluation granule, and the reason it is capped by
        #: :data:`_STEP_POINT_BUDGET` rather than extended to the run
        #: (PB's 20-stage group is slower than it was per tile when its
        #: live-out, seven stages inlined, runs over a whole row);
        #: inlined stages follow their consumers' regions automatically.
        self.carried: List[Tuple[int, str, Optional[int]]] = []
        if cdim >= 0:
            self.carried = [
                (i, n, next(
                    (j for j, ent in enumerate(plans[n]) if ent[0] == cdim),
                    None,
                ))
                for i, n in enumerate(kernel.region_names)
                if n not in kernel.direct_stores
            ]
        self.reuse = bool(self.carried)
        self.tabulate = kernel.tabulate
        self.chunks: Tuple[_Chunk, ...] = tuple(
            self.chunk(tiles)
            for tiles in _chunk_tiles(self.tiles, nthreads, self.row_len)
        ) if nthreads else ()

    def chunk(self, tiles: List[Tuple[int, Tuple[int, ...]]]) -> _Chunk:
        """The planned chunk walking ``tiles`` (a contiguous piece of
        the walk)."""
        steps = self.plan_steps(
            _plan_steps(tiles, self.step_tiles, self.cdim, self.cstep)
        )
        table = None
        if self.tabulate is not None and steps:
            table = self.tabulate(steps)
        return _Chunk(steps, len(tiles), table)

    def plan_steps(
        self, walk: Iterable[Tuple[int, Tuple[int, ...], int, int]]
    ) -> Tuple[_Step, ...]:
        """The dry run: the regions, bases and carry decisions of
        ``walk``'s ``(first tile index, first tile origin, tiles, run
        end)`` steps from a fresh carry — a whole chunk's, or, when a
        step of it failed, the chunk's rest from that step on (which then
        re-seeds)."""
        carry = _CarryState() if self.reuse else None
        steps = []
        for tile_index, tile_lo, ntiles, run_end in walk:
            sizes = self.step_sizes[ntiles]
            regions = [
                _region_from_plan(p, tile_lo, sizes, True)
                for p in self.region_plans
            ]
            bases = tuple(
                _region_from_plan(p, tile_lo, sizes, False)
                for p in self.base_plans
            )
            if carry is None:
                steps.append(_Step(
                    tile_index, tile_lo, ntiles, run_end, tuple(regions),
                    bases,
                ))
                continue
            adjacent = tile_lo == carry.next_lo
            saved = carry.saved
            carried, seeds, drops = [], [], []
            for i, name, axis in self.carried:
                bounds = regions[i]
                if bounds is None:
                    if carry.drop(name):
                        drops.append(i)
                elif carry.covers(name, bounds, axis, adjacent):
                    # Pure carry: the window goes to the kernel untouched
                    # and the stage body is skipped.
                    regions[i] = None
                    carried.append(i)
                else:
                    # (Re)seed: the kernel computes the rest of the run's
                    # window in this call.
                    regions[i] = carry.seed_bounds(
                        bounds, self.region_plans[i], axis, run_end
                    )
                    carry.store(name, regions[i])
                    seeds.append(i)
            carry.next_lo = _advanced(tile_lo, self.cdim, ntiles * self.cstep)
            steps.append(_Step(
                tile_index, tile_lo, ntiles, run_end, tuple(regions), bases,
                tuple(carried), tuple(seeds), tuple(drops),
                # every tile but a seeding step's first consumed carried
                # windows only
                ntiles - (1 if seeds else 0), carry.saved - saved,
            ))
        return tuple(steps)


def _walk_plan(
    pipeline: Pipeline,
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    nthreads: int,
    kernel: GroupKernel,
) -> _WalkPlan:
    """The group's :class:`_WalkPlan`, memoised on the geometry beside
    its stage plans — geometries are memoised weakly per pipeline, so
    plans die with their pipeline — keyed by everything the plan is
    derived from: the tiling, the thread count, and the kernel's slots
    and step-table builder."""
    key = (
        "walk", tuple(tile_sizes), nthreads, kernel.region_names,
        kernel.liveout_names, kernel.direct_stores, kernel.tabulate,
    )
    plan = geom._stage_plan_cache.get(key)
    if plan is None:
        plan = _WalkPlan(pipeline, geom, tile_sizes, kernel, nthreads)
        geom._stage_plan_cache[key] = plan
    return plan


class _Done:
    """What a chunk completed: schedule tiles, kernel steps, and the
    steps' share of the reuse metrics."""

    __slots__ = ("tiles", "steps", "reused", "saved")

    def __init__(self):
        self.tiles = self.steps = self.reused = self.saved = 0

    def add(self, steps: Iterable[_Step]) -> None:
        for step in steps:
            self.tiles += step.ntiles
            self.steps += 1
            self.reused += step.reused
            self.saved += step.saved


def _retry_or_raise(
    exc: Exception, attempts: int, tile_retries: int, group_index: int,
    step: _Step,
) -> None:
    """After failed attempt number ``attempts`` of ``step``: return when
    it may be retried, else raise ``TILE_FAIL``.  A deterministic
    failure (missing buffer, ``INPUT_*``) cannot succeed on an identical
    retry, so it surfaces at once with the true attempt count instead of
    burning the budget."""
    observing = METRICS.enabled
    retryable = is_retryable(exc)
    if retryable and attempts <= tile_retries:
        if observing:
            METRICS.inc("repro_tile_retries_total")
        return
    if observing:
        if not retryable:
            METRICS.inc("repro_tile_nonretryable_total")
        METRICS.inc("repro_tile_failures_total", code=error_code(exc))
    raise TileExecutionError(
        f"tile {step.tile_index} of group {group_index} (a step of "
        f"{step.ntiles} tile(s)) failed after {attempts} attempt(s)"
        f"{'' if retryable else ' (non-retryable)'}: {exc}",
        group_index=group_index,
        tile_index=step.tile_index,
        tile_origin=tuple(step.tile_lo),
        step_tiles=step.ntiles,
        cause=exc,
        attempts=attempts,
        retryable=retryable,
    )


def _walk_chunk(
    plan: _WalkPlan,
    chunk: _Chunk,
    kernel: GroupKernel,
    buffers: Mapping[str, Buffer],
    out_buffers: Dict[str, Buffer],
    pool: BufferPool,
    done: _Done,
    group_index: int = 0,
    tile_retries: int = 0,
) -> None:
    """Run one planned chunk on ``kernel`` — a NumPy kernel; a native
    one runs only inside a program — adding what completed to ``done``;
    the caller releases ``pool`` afterwards.

    The unit of retry and of the ``"tile"`` fault site is the step: one
    ``kernel.fn`` call per planned step, its carried slots handed the
    windows earlier seeds left in ``windows``.  A failed step attempt
    drops every window (it may have poisoned them: reclaimed scratch a
    window still aliases) and the chunk's rest is planned again from a
    fresh carry, so the retry — and every step until the chain re-seeds
    — computes fresh windows."""
    observing = METRICS.enabled
    attempts = 0
    steps, at = chunk.steps, 0
    windows: Dict[int, Buffer] = {}
    no_carries = (None,) * len(plan.region_plans)
    while at < len(steps):
        step = steps[at]
        try:
            maybe_fail(
                "tile", detail=f"g{group_index}t{step.tile_index}a{attempts}"
            )
            for i in step.drops:
                pool.reclaim(windows.pop(i).data)
            carries: Sequence[Optional[tuple]] = no_carries
            if step.carried:
                carries = [None] * len(no_carries)
                for i in step.carried:
                    carries[i] = (windows[i].data, windows[i].origin)
            results = kernel.fn(
                step.regions, step.bases, buffers, out_buffers, pool, carries
            )
        except Exception as exc:  # noqa: BLE001 - rewrapped below
            attempts += 1
            pool.release_all()
            windows.clear()
            if plan.reuse and observing:
                METRICS.inc("repro_halo_reuse_invalidations_total")
            _retry_or_raise(exc, attempts, tile_retries, group_index, step)
            steps, at = plan.plan_steps(s[:4] for s in steps[at:]), 0
            continue
        if plan.reuse:
            # Superseded windows go back now, the rest at chunk end.
            for i in step.seeds:
                old = windows.get(i)
                if old is not None and old.data is not results[i].data:
                    pool.reclaim(old.data)
                windows[i] = results[i]
        else:
            # Live-outs are in out_buffers, so the step's scratch arrays
            # can all go back for the next step.
            pool.release_all()
        attempts = 0
        at += 1
        done.add((step,))


def _execute_group_tiled(
    pipeline: Pipeline,
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    buffers: Dict[str, Buffer],
    nthreads: int,
    kernel: GroupKernel,
    group_index: int = 0,
    tile_retries: int = 0,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
) -> None:
    """Execute one fused group with overlapped tiling on a NumPy
    ``kernel``, updating ``buffers`` with its live-out arrays — the
    per-group walk.  A native group runs inside a program instead
    (:func:`_walk_groups`), from the same plan.

    Everything the walk derives from the geometry — regions, bases,
    seed-or-carry decisions, chunks, a native kernel's step tables — is
    planned once per ``(tile sizes, nthreads, kernel)`` and memoised
    (:func:`_walk_plan`); a warm execution only reads the plan.

    The unit planned is a **step**: ``k >= 1`` schedule tiles adjacent
    along the carry dimension, executed by *one* kernel step over the
    union of their regions — the expanded region of a tile ``k`` times
    as long, whose base is exactly the union of the ``k`` tiles' bases
    (:func:`_region_from_plan`'s partition property).  The schedule
    sized its tiles for generated C++, where entering a tile is free;
    here a NumPy kernel call pays Python and tens of NumPy dispatches,
    so :func:`_step_tiles` derives ``k`` once per group from its
    geometry and :data:`_STEP_POINT_BUDGET`.  A tile is a step of length
    one, which is all there is with a reduction in the group or on a
    grid without a carry dimension.

    All member stages run over the step's expanded regions,
    intermediates in scratch arrays recycled through a worker-local
    :class:`BufferPool`.  Tiles are cut into one contiguous chunk per
    worker (:func:`_chunk_tiles`), each chunk into steps
    (:func:`_plan_steps`).  The thread walking the group runs the first
    chunk itself and the rest run on ``executor`` when given (a
    persistent pool owned by the caller), else on the process-global
    :func:`shared_executor`; scratch pools come from ``pools`` when
    given (worker-local pools that stay warm across calls), else one
    fresh pool per chunk.  A chunk is one ``kernel.fn`` call per step
    (:func:`_walk_chunk`).

    Halo reuse is always on: each chunk walks its tiles in *runs* of
    adjacent tiles along a *carry dimension* and computes every
    materialised stage at run granularity: the run's first step extends
    each stage's expanded region along the carry dimension to the
    expanded high bound of the run's last tile and computes that whole
    window in one stage-body call, so each overlap point is computed
    once per run (instead of once per tile) and the fixed per-call cost
    of the stage body is amortised across the run.  A run never extends
    past its chunk: :func:`_chunk_tiles` hands out whole grid rows
    whenever there are at least as many rows as workers (runs are then
    rows, at any thread count) and cuts a row only when there are fewer;
    a step never extends past its run.  Every later *adjacent* step
    (same grid origin except the carry dimension, advanced by exactly
    the previous step's length) whose region is contained in the carried
    window is a **pure carry** — the window is handed to consumers
    untouched, no recompute, no copy.  Chunk starts, non-adjacent steps,
    and regions that escape the carried window re-seed from the current
    step to the run's end.  Carried and merged values are bit-identical
    to per-tile recomputation: stage bodies are elementwise over their
    windows, and the out-of-domain clamped reads that *could* differ
    between window extents are masked by their ``Case`` conditions (the
    same invariant every kernel relies on).  A kernel's direct-store
    live-outs are never carried: each step evaluates them over its own
    base region, which is why a step is bounded by a point budget
    instead of running to the run's end.

    The unit of retry and of the ``"tile"`` fault site is the step
    (:func:`_walk_chunk`): a step that raises is retried up to
    ``tile_retries`` times, then the failure surfaces as a
    :class:`TileExecutionError` (code ``TILE_FAIL``) naming the group,
    the step's first tile and tile count, and the original cause — also
    from inside the thread-pool path, where a bare exception would
    otherwise emerge as an opaque traceback out of a future.
    Live-outs are published to ``buffers`` only after every chunk
    succeeded, so a failed group leaves ``buffers`` untouched and a
    caller can fall back cleanly.
    """
    plan = _walk_plan(pipeline, geom, tile_sizes, nthreads, kernel)
    out_buffers = {
        s.name: Buffer.for_region(pipeline.domain(s), s.scalar_type.np_dtype)
        for s in geom.liveouts
    }
    # Chunk spans run on worker threads where the thread-local span stack
    # is empty — capture the group span here so they parent correctly.
    parent_span = TRACE.current() if TRACE.enabled else None
    if parent_span is not None:
        parent_span.set(
            native=kernel.native,
            halo_reuse=plan.reuse, step_tiles=plan.step_tiles,
        )

    def run_chunk(chunk: _Chunk) -> None:
        # Worker-local scratch pool, so lock-free: the group's shared
        # PoolGroup when one was passed (warm across calls), else one
        # fresh pool per chunk.
        pool = pools.get() if pools is not None else BufferPool()
        observing = METRICS.enabled
        if observing:
            # Shared pools carry cumulative counters across chunks and
            # requests — flush only this chunk's delta.
            base = (pool.stat_reused, pool.stat_allocated,
                    pool.stat_reclaimed, pool.stat_evicted)
        done = _Done()
        with TRACE.span(
            "chunk", parent=parent_span, tiles=chunk.ntiles,
            steps=len(chunk.steps),
            first_tile=chunk.steps[0].tile_index if chunk.steps else -1,
        ):
            try:
                _walk_chunk(
                    plan, chunk, kernel, buffers, out_buffers, pool, done,
                    group_index, tile_retries,
                )
            finally:
                # Carried windows held the pool's arrays across steps —
                # hand them all back now.
                pool.release_all()
                if observing:
                    # Also when a unit failed for good: the steps before
                    # it did run, and a chunk that ends in TILE_FAIL is
                    # exactly the one an operator wants counted.
                    METRICS.inc("repro_tiles_total", done.tiles)
                    METRICS.inc("repro_tile_steps_total", done.steps)
                    if done.reused:
                        METRICS.inc(
                            "repro_halo_reuse_tiles_total", done.reused
                        )
                    if done.saved:
                        METRICS.inc(
                            "repro_halo_reuse_saved_points_total",
                            done.saved,
                        )
                    METRICS.inc("repro_pool_acquires_total",
                                pool.stat_reused - base[0], result="reused")
                    METRICS.inc("repro_pool_acquires_total",
                                pool.stat_allocated - base[1],
                                result="allocated")
                    METRICS.inc("repro_pool_reclaims_total",
                                pool.stat_reclaimed - base[2])
                    METRICS.inc("repro_pool_evictions_total",
                                pool.stat_evicted - base[3])

    first, *rest = plan.chunks
    if rest:
        tpool = executor if executor is not None else shared_executor(
            nthreads
        )
        futures = [tpool.submit(run_chunk, chunk) for chunk in rest]
        # The walking thread runs the first chunk itself, then waits for
        # *every* other chunk before raising — no stray worker may still
        # write out_buffers after we return.
        first_exc: Optional[BaseException] = None
        try:
            run_chunk(first)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            first_exc = exc
        for future in futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
    else:
        run_chunk(first)

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


def _stagewise_kernel(
    pipeline: Pipeline,
    geom: GroupGeometry,
    kernels: Mapping[str, StageKernel],
) -> GroupKernel:
    """The :class:`GroupKernel` that walks a group's members one stage
    body at a time through :func:`_compute_function_region` — the stage's
    compiled kernel where ``kernels`` has one, else its expression tree.
    Every member is a region slot; none is inlined or stored direct."""
    # The kernel is memoised in a cache weakly keyed by the pipeline:
    # holding the pipeline strongly here would keep it alive forever.
    pipeline_ref = weakref.ref(pipeline)
    names = tuple(s.name for s in geom.stages)
    liveout_pos = {s.name: j for j, s in enumerate(geom.liveouts)}
    steps = [
        (i, s, kernels.get(s.name), liveout_pos.get(s.name))
        for i, s in enumerate(geom.stages)
    ]

    def fn(regions, bases, buffers, out_buffers, pool, carries):
        pipeline = pipeline_ref()
        scratch: Dict[str, Buffer] = {}
        # A member whose producer's region was empty finds no scratch
        # entry and no full buffer: KeyError, non-retryable.
        lookup = _ChainLookup(scratch, buffers)
        results: List[Optional[Buffer]] = [None] * len(steps)
        for i, stage, kernel, liveout in steps:
            bounds = regions[i]
            if bounds is not None:
                result = _compute_function_region(
                    pipeline, stage, bounds, lookup,
                    kernel=kernel, pool=pool,
                )
            elif carries[i] is not None:
                result = Buffer(*carries[i])
            else:
                continue
            scratch[stage.name] = results[i] = result
            if liveout is not None:
                base = bases[liveout]
                if base is not None:
                    out_buffers[stage.name].store_region(
                        base, result.read_region(base)
                    )
        return results

    return GroupKernel(
        group_names=names,
        region_names=names,
        liveout_names=tuple(s.name for s in geom.liveouts),
        inlined=(),
        direct_stores=(),
        fn=fn,
    )


def _numpy_kernel(pipeline: Pipeline, geom) -> GroupKernel:
    """The kernel a group runs on when it is not native: the
    stage-walking adapter over compiled stage kernels (a stage that fails
    to compile walks its expression tree after one
    ``KERNEL_COMPILE_FAIL`` warning).  A reduction's is
    :func:`_compute_reduction`."""
    if isinstance(geom, Reduction):
        # weakly, like the stage-walking adapter: the memo is keyed by
        # the pipeline
        pipeline_ref = weakref.ref(pipeline)
        return GroupKernel.for_reduction(
            geom.name,
            lambda buffers: _compute_reduction(pipeline_ref(), geom, buffers),
        )
    return _stagewise_kernel(
        pipeline, geom, stage_kernels(pipeline, geom.stages)
    )


def _seeded_producers(
    pipeline: Pipeline, stages: Sequence[Function], spread: bool = False
) -> Dict[str, Buffer]:
    """Seeded full-domain buffers for everything ``stages`` read from
    outside themselves: integers in ``[0, 1024)`` and floats in
    ``[0, 1)`` — with ``spread``, ``[-512, 1536)`` and ``[-1, 2)``, so
    that indices computed from them land on both sides of a domain's
    edges."""
    rng = np.random.default_rng(0)
    members = set(stages)
    buffers: Dict[str, Buffer] = {}
    for stage in stages:
        for access in pipeline.accesses(stage):
            prod = access.producer
            if prod in members or prod.name in buffers:
                continue
            if isinstance(prod, Function):
                dom = pipeline.domain(prod)
                origin = tuple(lo for lo, _ in dom)
                shape = tuple(hi - lo + 1 for lo, hi in dom)
            else:
                shape = pipeline.image_shape(prod)
                origin = (0,) * len(shape)
            dtype = prod.scalar_type.np_dtype
            if dtype.kind in "ui":
                lo, hi = (-512, 1536) if spread else (0, 1024)
                data = rng.integers(lo, hi, shape).astype(dtype)
            else:
                data = rng.random(shape)
                if spread:
                    data = data * 3 - 1
                data = data.astype(dtype)
            buffers[prod.name] = Buffer(data, origin)
    return buffers


def _kernels_agree(pipeline: Pipeline, geom, kernel: GroupKernel) -> bool:
    """Whether a freshly built native ``kernel`` computes the bytes its
    group's stage walk does — the stage-walking adapter over compiled
    stage kernels, which shares none of the native plan's inlining or
    direct-store decisions, so a bug in those cannot agree with itself
    — on seeded producers and 16-point tiles, as the live-outs' bytes
    over the walked tiles' base regions: two one-tile chunks, one at the
    grid's low corner (border windows) and one in its middle (interior
    windows), and one whole chunk, the grid's middle row walked in steps
    of two tiles, so that carried slots, windows seeded to the run's end
    and copy-outs from carried windows are compared too.  Each kernel
    walks the same tiles on its own :class:`_WalkPlan` — a one-tile run
    seeds exactly to its own expanded bound — ``kernel`` as a one-op
    program of the chunk's step table (whose outputs are not zeroed:
    only base regions are compared), the stage walk step by step.  A
    reduction's kernel: the same bytes as :func:`_compute_reduction` over
    its whole reduction domain, from producers spread so that targets
    fall inside and outside the accumulator."""
    reference = _numpy_kernel(pipeline, geom)
    if isinstance(geom, Reduction):
        buffers = _seeded_producers(pipeline, [geom], spread=True)
        with suspended():
            got = [k.fn(buffers) for k in (kernel, reference)]
        return got[0].origin == got[1].origin and (
            got[0].data.tobytes() == got[1].data.tobytes()
        )
    buffers = _seeded_producers(pipeline, geom.stages)
    sizes = tuple(min(16, hi - lo + 1) for lo, hi in geom.grid_bounds)
    middle = tuple(
        lo + (hi - lo + 1) // 2 // t * t
        for (lo, hi), t in zip(geom.grid_bounds, sizes)
    )
    plan, stage_plan = (
        _WalkPlan(pipeline, geom, sizes, k, step_tiles=2)
        for k in (kernel, reference)
    )
    tiles = plan.tiles
    row = plan.row_len or len(tiles)
    mid = len(tiles) // row // 2 * row
    checks = (
        tiles[:1],
        [t for t in tiles if t[1] == middle],
        tiles[mid:mid + row],
    )
    with suspended():
        for check in checks:
            chunk = plan.chunk(check)
            got, _, _ = native.pack_program(pipeline, [[chunk.table]]).run(
                buffers, BufferPool(), None, 1
            )
            outs = {
                s.name: Buffer.for_region(
                    pipeline.domain(s), s.scalar_type.np_dtype
                )
                for s in geom.liveouts
            }
            _walk_chunk(
                stage_plan, stage_plan.chunk(check), reference, buffers,
                outs, BufferPool(), _Done(),
            )
            for j, name in enumerate(kernel.liveout_names):
                for step in chunk.steps:
                    base = step.bases[j]
                    if base is not None and (
                        got[name].read_region(base).tobytes()
                        != outs[name].read_region(base).tobytes()
                    ):
                        return False
    return True


def resolve_group_kernels(
    pipeline: Pipeline,
    units: Sequence,
    kernels: KernelTier,
    schedule_cache: Optional[str] = None,
) -> List[GroupKernel]:
    """The kernel each of ``units`` — a :class:`GroupGeometry` per tiled
    group, a :class:`Reduction` per reduction stage that runs untiled —
    runs on at tier ``kernels``, memoised per ``(pipeline, member set,
    tier)`` so a warm request resolves nothing.

    At ``NATIVE`` every unit not resolved yet goes to
    :func:`repro.runtime.native.build_group_kernels`
    *together* — one translation unit, one compiler call, or one
    artifact-store hit (the store lives under ``schedule_cache`` when
    given).  The first time an artifact is used on a machine each native
    kernel is compared with its group's stage walk on seeded inputs
    (:func:`_kernels_agree`) and demoted on any differing byte.
    Whatever is not native resolves as :func:`_numpy_kernel` says."""
    per = _RESOLVED_CACHE.get(pipeline)
    if per is None:
        per = _RESOLVED_CACHE.setdefault(pipeline, {})
    use_native = kernels is KernelTier.NATIVE
    keys = [
        (u.name, use_native) if isinstance(u, Reduction)
        else (frozenset(s.name for s in u.stages), kernels)
        for u in units
    ]
    missing = [i for i, k in enumerate(keys) if k not in per]
    if missing and use_native:
        built = native.build_group_kernels(
            pipeline, [units[i] for i in missing], schedule_cache
        )
        if built.unverified:
            built.commit([
                j for j, kernel in list(built.kernels.items())
                if not _kernels_agree(pipeline, units[missing[j]], kernel)
            ])
        for j, kernel in built.kernels.items():
            per[keys[missing[j]]] = kernel
    for i in missing:
        if keys[i] not in per:
            per[keys[i]] = _numpy_kernel(pipeline, units[i])
    return [per[k] for k in keys]


def resolve_group_kernel(
    pipeline: Pipeline, unit, kernels: KernelTier
) -> GroupKernel:
    """:func:`resolve_group_kernels` on one group or reduction."""
    return resolve_group_kernels(pipeline, [unit], kernels)[0]


def _tiled_geometry(pipeline: Pipeline, members) -> Optional[GroupGeometry]:
    """The overlap-tiling geometry ``members`` execute under; ``None``
    for groups that run untiled, stage by stage over full domains (no
    geometry, or a singleton reduction)."""
    if len(members) == 1 and isinstance(next(iter(members)), Reduction):
        return None
    return compute_group_geometry(pipeline, members)


def _reductions_in(pipeline: Pipeline, members) -> List[Reduction]:
    """The reduction stages of an untiled group, in pipeline order."""
    return [
        s for s in pipeline.stages
        if s in members and isinstance(s, Reduction)
    ]


def grouping_kernels(
    pipeline: Pipeline,
    groups: Sequence[Sequence[Function]],
    kernels: Optional[KernelTier] = None,
    schedule_cache: Optional[str] = None,
) -> List[GroupKernel]:
    """Resolve — compiling whatever it stands on — the kernel of every
    tiled group and of every reduction in an untiled one, in one
    :func:`resolve_group_kernels` call, so the first execution pays
    nothing and the native kernels of the whole grouping share one
    artifact (kept under ``schedule_cache`` when given).  Serve warm-up
    calls this before forking workers, which then inherit every kernel
    compiled.  ``kernels`` defaults to :meth:`KernelTier.resolve`.
    Returns those kernels in grouping order."""
    if kernels is None:
        kernels = KernelTier.resolve()
    units: List = []
    for members in groups:
        geom = _tiled_geometry(pipeline, members)
        if geom is not None:
            units.append(geom)
        else:
            units.extend(_reductions_in(pipeline, members))
    return resolve_group_kernels(pipeline, units, kernels, schedule_cache)


def warm_group_kernels(
    pipeline: Pipeline,
    groups: Sequence[Sequence[Function]],
    kernels: Optional[KernelTier] = None,
    schedule_cache: Optional[str] = None,
) -> Mapping[frozenset, GroupKernel]:
    """:func:`grouping_kernels`, returning only the kernels that run a
    multi-stage group as one kernel — native C, where it was built —
    keyed by member-name frozenset."""
    return {
        frozenset(kernel.group_names): kernel
        for kernel in grouping_kernels(
            pipeline, groups, kernels, schedule_cache
        )
        if kernel.native and len(kernel.group_names) > 1
    }


def _execute_group_untiled(
    pipeline: Pipeline, members, buffers: Dict[str, Buffer],
    reducers: Mapping[str, GroupKernel],
) -> None:
    """Run ``members`` stage by stage over their full domains, in
    pipeline order: a reduction named in ``reducers`` on that kernel,
    every other reduction by :func:`_compute_reduction`, everything else
    on its compiled stage kernel."""
    for stage in pipeline.stages:
        if stage in members:
            if stage.name in reducers:
                buffers[stage.name] = reducers[stage.name].fn(buffers)
                continue
            kernel = None
            if not isinstance(stage, Reduction):
                kernel = get_kernel(pipeline, stage)
            buffers[stage.name] = _compute_stage_full(
                pipeline, stage, buffers, kernel=kernel
            )


def _execute_one_group(
    pipeline: Pipeline,
    members,
    tiles: Sequence[int],
    buffers: Dict[str, Buffer],
    nthreads: int,
    kernels: KernelTier,
    group_index: int = 0,
    tile_retries: int = 0,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
) -> str:
    """Execute a single group of a grouping by itself, returning the mode
    used: ``"tiled"`` or ``"untiled"``.  A tiled group walks on NumPy
    kernels — a native one's stage walk: native groups run only inside a
    program (:func:`_walk_groups`).  At ``NATIVE`` an untiled group runs
    its native reductions by their ``fn``, a one-op program each."""
    geom = _tiled_geometry(pipeline, members)
    if geom is None:
        reducers = {}
        if kernels is KernelTier.NATIVE:
            reductions = _reductions_in(pipeline, members)
            reducers = {
                stage.name: kernel for stage, kernel in zip(
                    reductions,
                    resolve_group_kernels(pipeline, reductions, kernels),
                ) if kernel.native
            }
        _execute_group_untiled(pipeline, members, buffers, reducers)
        span = TRACE.current() if TRACE.enabled else None
        if span is not None:
            span.set(native=len(reducers))
        return "untiled"
    if len(tiles) != geom.ndim:
        raise ValueError(
            f"group {[s.name for s in members]} needs {geom.ndim} tile "
            f"sizes, got {len(tiles)}"
        )
    kernel = resolve_group_kernel(pipeline, geom, kernels)
    if kernel.native:
        kernel = resolve_group_kernel(pipeline, geom, KernelTier.STAGE)
    _execute_group_tiled(
        pipeline, geom, tiles, buffers, nthreads, kernel,
        group_index=group_index, tile_retries=tile_retries,
        executor=executor, pools=pools,
    )
    return "tiled"


class _Segment(NamedTuple):
    """Groups ``first`` to ``stop - 1`` of a grouping whose every unit
    is a native step table, run as one :class:`repro.runtime.native._Program`
    (:func:`_segments`).  Per group: its mode, its span attributes, what
    it completes — plan constants, the metrics the per-group walk counts
    chunk by chunk — its ops in the program, and the ``chunk`` span
    attributes of each (none for a reduction-only group, which has one
    op per reduction)."""

    first: int
    stop: int
    program: "native._Program"
    groups: Tuple[Tuple[str, dict, _Done, slice, Tuple[dict, ...]], ...]


def _segment_part(
    pipeline: Pipeline, members, tiles, nthreads: int, kernels: KernelTier
):
    """``(program groups, mode, span attributes, done, chunk span
    attributes)`` of one group in a program, or ``None`` when it walks
    by itself on NumPy kernels: a unit that is not native, a stage run
    on NumPy, a producer region left empty."""
    geom = _tiled_geometry(pipeline, members)
    if geom is None:
        reductions = _reductions_in(pipeline, members)
        if len(reductions) != len(members):
            return None
        tables = [
            k.table
            for k in resolve_group_kernels(pipeline, reductions, kernels)
        ]
        if None in tables:
            return None
        return (
            [[t] for t in tables], "untiled", {"native": len(tables)},
            _Done(), (),
        )
    if len(tiles) != geom.ndim:
        return None
    kernel = resolve_group_kernel(pipeline, geom, kernels)
    if kernel.tabulate is None:
        return None
    plan = _walk_plan(pipeline, geom, tiles, nthreads, kernel)
    if any(c.table is None or c.table.missing for c in plan.chunks):
        return None
    done = _Done()
    for chunk in plan.chunks:
        done.add(chunk.steps)
    return (
        [[c.table for c in plan.chunks]], "tiled",
        {"native": True, "halo_reuse": plan.reuse,
         "step_tiles": plan.step_tiles},
        done,
        tuple(
            {"tiles": c.ntiles, "steps": len(c.steps),
             "first_tile": c.steps[0].tile_index}
            for c in plan.chunks
        ),
    )


def _segments(
    pipeline: Pipeline, grouping: Grouping, nthreads: int,
    kernels: KernelTier,
) -> Dict[int, _Segment]:
    """The grouping's segments by first group: maximal runs of
    consecutive groups :func:`_segment_part` admits, each packed into one
    program over the groups' own walk plans and step tables — planned
    once per ``(grouping, nthreads, tier)`` and memoised with the
    pipeline's resolved kernels, which the programs point into."""
    per = _RESOLVED_CACHE.get(pipeline)
    if per is None:
        per = _RESOLVED_CACHE.setdefault(pipeline, {})
    key = ("program", grouping.groups, grouping.tile_sizes, nthreads, kernels)
    got = per.get(key)
    if got is not None:
        return got
    grouping_kernels(pipeline, grouping.groups, kernels)
    parts = [
        _segment_part(pipeline, members, tiles, nthreads, kernels)
        for members, tiles in zip(grouping.groups, grouping.tile_sizes)
    ]
    got = {}
    gi = 0
    while gi < len(parts):
        if parts[gi] is None:
            gi += 1
            continue
        first, program, numbers, groups, ops = gi, [], [], [], 0
        while gi < len(parts) and parts[gi] is not None:
            part, mode, attrs, done, chunks = parts[gi]
            width = sum(len(p) for p in part)
            groups.append((mode, attrs, done, slice(ops, ops + width), chunks))
            program += part
            numbers += [gi] * len(part)
            ops += width
            gi += 1
        got[first] = _Segment(
            first, gi, native.pack_program(pipeline, program, numbers),
            tuple(groups),
        )
    per[key] = got
    return got


def _run_segment(
    pipeline: Pipeline,
    grouping: Grouping,
    seg: _Segment,
    buffers: Dict[str, Buffer],
    nthreads: int,
    executor: Optional[ThreadPoolExecutor],
    pools: Optional[PoolGroup],
    run_group: Callable,
    held: List[Tuple[BufferPool, np.ndarray]],
) -> bool:
    """Run ``seg`` as one program and publish what it wrote into
    ``buffers``; then record each of its groups as the per-group walk
    does — ``run_group(..., ran=mode)``, a ``group`` span and
    ``repro_group_seconds`` from the C clocks (the first group's from
    when the program's setup began, the last group's to when every group
    was published and recorded, as a walked group's span holds its own
    Python), a
    ``chunk`` span per chunk, and the tile counters from plan
    constants.  The arena, from the walking thread's pool of ``pools``
    (else a fresh pool), goes to ``held`` with its pool, to be given
    back when the walk ends.  ``False`` when the program raised:
    nothing is published or recorded but the error, on the walk's
    span."""
    began = time.perf_counter()
    if nthreads > 1 and executor is None:
        executor = shared_executor(nthreads)
    pool = pools.get() if pools is not None else BufferPool()
    observing = METRICS.enabled
    reused, allocated = pool.stat_reused, pool.stat_allocated
    try:
        produced, clocks, arena = seg.program.run(
            buffers, pool, executor, nthreads
        )
    except Exception as exc:  # noqa: BLE001 - the caller walks the groups
        if TRACE.enabled:
            TRACE.current().set(program_error=repr(exc)[:200])
        return False
    held.append((pool, arena))
    buffers.update(produced)
    if observing:
        METRICS.inc("repro_pool_acquires_total",
                    pool.stat_reused - reused, result="reused")
        METRICS.inc("repro_pool_acquires_total",
                    pool.stat_allocated - allocated, result="allocated")
    recorded = [
        {**attrs, **run_group(
            gi, grouping.groups[gi], grouping.tile_sizes[gi], buffers,
            ran=mode,
        )}
        for gi, (mode, attrs, *_) in enumerate(seg.groups, seg.first)
    ]
    published = time.perf_counter()
    for gi, (_, _, done, ops, chunks), attrs in zip(
        itertools.count(seg.first), seg.groups, recorded
    ):
        members, tiles = grouping.groups[gi], grouping.tile_sizes[gi]
        start = began if gi == seg.first else min(t for t, _ in clocks[ops])
        end = max(t for _, t in clocks[ops])
        if gi == seg.stop - 1:
            end = max(end, published)
        if TRACE.enabled:
            span = TRACE.add_span(
                "group", start, end, index=gi,
                stages=sorted(s.name for s in members), tiles=list(tiles),
                **attrs,
            )
            for (t0, t1), chunk in zip(clocks[ops], chunks):
                TRACE.add_span("chunk", t0, t1, parent=span, **chunk)
        if observing:
            METRICS.observe(
                "repro_group_seconds", end - start,
                pipeline=pipeline.name, group=str(gi),
            )
            METRICS.inc("repro_tiles_total", done.tiles)
            METRICS.inc("repro_tile_steps_total", done.steps)
            if done.reused:
                METRICS.inc("repro_halo_reuse_tiles_total", done.reused)
            if done.saved:
                METRICS.inc(
                    "repro_halo_reuse_saved_points_total", done.saved
                )
    return True


def _walk_groups(
    pipeline: Pipeline,
    grouping: Grouping,
    inputs: Mapping[str, np.ndarray],
    nthreads: int,
    entry: str,
    mode: str,
    run_group: Callable[..., Mapping[str, object]],
    kernels: KernelTier,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
) -> Dict[str, np.ndarray]:
    """The group walk :func:`execute_grouping` (``entry`` / ``mode`` =
    ``"execute_grouping"`` / ``"strict"``) and
    :func:`repro.resilience.guard.execute_guarded`
    (``"execute_guarded"`` / ``"guarded"``) share: validate the inputs
    into buffers, call ``run_group(index, members, tiles, buffers,
    tier)`` for every group in topological order — it runs the group at
    ``tier`` (:func:`_execute_one_group`), publishes its stages into
    ``buffers`` and returns what to record on the group's span — and
    gather the outputs.  ``entry`` names the span around the walk,
    ``mode`` labels ``repro_execute_seconds``.

    At ``kernels`` ``NATIVE``, each segment of the grouping
    (:func:`_segments`) runs as one native program instead — one
    GIL-free call per thread, helpers submitted to ``executor``,
    intermediates in one arena from the walking thread's pool of
    ``pools``, one ``"tile"`` fault-site check per op before any of it —
    and ``run_group(..., ran=mode)`` only records it.  A segment whose
    program raises publishes nothing and runs group by group at
    ``STAGE``, the NumPy stage walk: each step retried there and, under
    :func:`~repro.resilience.guard.execute_guarded`, each group behind
    its reference fallback.  The only native code Python calls is a
    program's.
    """
    if grouping.pipeline is not pipeline:
        raise ValueError("grouping was built for a different pipeline")
    if nthreads < 1:
        raise ValueError("nthreads must be positive")
    segments: Mapping[int, _Segment] = {}
    with TRACE.span("prepare", pipeline=pipeline.name):
        buffers = _input_buffers(pipeline, inputs)
        if kernels == KernelTier.NATIVE:
            segments = _segments(pipeline, grouping, nthreads, kernels)
    held: List[Tuple[BufferPool, np.ndarray]] = []

    observing = METRICS.enabled
    t_exec = time.perf_counter() if observing else 0.0
    try:
        with TRACE.span(
            entry, pipeline=pipeline.name, nthreads=nthreads,
            groups=grouping.num_groups,
        ):
            gi = 0
            while gi < grouping.num_groups:
                seg = segments.get(gi)
                if seg is not None and _run_segment(
                    pipeline, grouping, seg, buffers, nthreads, executor,
                    pools, run_group, held,
                ):
                    gi = seg.stop
                    continue
                tier = KernelTier.STAGE if seg else kernels
                for gi in range(gi, seg.stop if seg else gi + 1):
                    members = grouping.groups[gi]
                    tiles = grouping.tile_sizes[gi]
                    t_group = time.perf_counter() if observing else 0.0
                    with TRACE.span(
                        "group", index=gi,
                        stages=sorted(s.name for s in members),
                        tiles=list(tiles),
                    ) as gspan:
                        gspan.set(
                            **run_group(gi, members, tiles, buffers, tier)
                        )
                    if observing:
                        METRICS.observe(
                            "repro_group_seconds",
                            time.perf_counter() - t_group,
                            pipeline=pipeline.name, group=str(gi),
                        )
                gi += 1
    finally:
        for pool, arena in held:
            reclaimed, evicted = pool.stat_reclaimed, pool.stat_evicted
            pool.give(arena)
            if observing:
                METRICS.inc("repro_pool_reclaims_total",
                            pool.stat_reclaimed - reclaimed)
                METRICS.inc("repro_pool_evictions_total",
                            pool.stat_evicted - evicted)
    if observing:
        METRICS.observe(
            "repro_execute_seconds", time.perf_counter() - t_exec,
            pipeline=pipeline.name, mode=mode,
        )

    return {o.name: buffers[o.name].data for o in pipeline.outputs}


def execute_grouping(
    pipeline: Pipeline,
    grouping: Grouping,
    inputs: Mapping[str, np.ndarray],
    nthreads: int = 1,
    tile_retries: int = 0,
    kernels: Optional[KernelTier] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    pools: Optional[PoolGroup] = None,
) -> Dict[str, np.ndarray]:
    """Execute a grouping with overlapped tiling.

    Groups execute in topological order.  Groups without an overlap-tiling
    geometry (singleton reductions, or Halide-style groups that fuse a
    reduction) are executed stage-by-stage untiled — PolyMage likewise
    leaves reductions unoptimised (Sec. 6.2): a plain serial loop, which
    is what a reduction runs on here too at ``KernelTier.NATIVE``.

    ``kernels`` (default: :meth:`KernelTier.resolve` — ``NATIVE`` unless
    ``REPRO_KERNELS`` says otherwise) selects the kernel each tiled group
    runs on (:func:`resolve_group_kernel`); outputs are bit-identical
    under every tier.

    Multi-threaded groups run their tile chunks on ``executor`` when the
    caller owns a persistent pool (the serve layer does), else on the
    lazily created process-global :func:`shared_executor` — either way
    no pool is constructed or torn down per group.  ``pools`` similarly
    lets a caller keep worker-local scratch pools warm across calls
    (:class:`repro.runtime.buffers.PoolGroup`).

    Failures are structured (:mod:`repro.errors`): missing or malformed
    inputs raise ``INPUT_*`` errors up front, and a tile that raises
    surfaces as ``TILE_FAIL`` with its group/tile coordinates after
    ``tile_retries`` bounded retries.  For retry-then-degrade execution
    and per-group fallback to the reference — the same walk,
    guarded per group — see
    :func:`repro.resilience.guard.execute_guarded`.
    """
    if kernels is None:
        kernels = KernelTier.resolve()

    def run_group(gi, members, tiles, buffers, tier=None, ran=None):
        return {"mode": ran or _execute_one_group(
            pipeline, members, tiles, buffers, nthreads, tier,
            group_index=gi, tile_retries=tile_retries,
            executor=executor, pools=pools,
        )}

    return _walk_groups(
        pipeline, grouping, inputs, nthreads,
        "execute_grouping", "strict", run_group, kernels, executor, pools,
    )
