"""The concrete cost function (Sec. 4, Algorithm 2).

``COST(H)`` evaluates a candidate group ``H`` together with the best tile
sizes it determines for it:

1. If the group's dependences cannot be made constant by scaling/alignment
   (reductions with company, data-dependent intra-group accesses,
   inconsistent scales), the cost is infinite — the grouping is invalid.
2. Otherwise tile sizes are computed for an L1-sized footprint; if that
   forces more redundant (overlap) computation than useful computation,
   the L2 size is used instead (``COSTFORCACHESIZE`` twice).
3. The cost combines four criteria: locality (live-in + live-out bytes per
   computed point), parallelism (idle-core fraction of the last tile
   wave — the "cleanup tiles" term), redundant computation (overlap as a
   fraction of tile volume), and the relative difference between fused
   dimension extents.

Each criterion is a per-point quantity; the group cost is their weighted
sum times the group's total compute volume, so that summing costs over the
groups of a grouping — the DP objective of Sec. 3.1 — weighs every group
by the work it represents.  (See :mod:`repro.model.weights` for why the
paper's literal formula needs this normalisation.)

The machine description's type picks the function that prices a group
(:func:`group_cost`): a :class:`~repro.model.machine.Machine` is priced
by :func:`cpu_group_cost` (Algorithm 2), a
:class:`~repro.model.machine.GpuMachine` by :func:`gpu_group_cost`, the
two-level block/warp mapping of the GPU follow-up paper ("Model-Based
Warp Overlapped Tiling for Image Processing Programs on GPUs"):

* **Block tiles** are staged in shared memory and carry the group's
  halo at the global-memory level — each block redundantly computes its
  expanded region, exactly like a CPU tile, priced with the existing
  :mod:`repro.poly.overlap` machinery.
* **Warp tiles** partition each block tile; in the default *warp* mode
  every warp also recomputes its own (much smaller) halo so no
  intra-block synchronisation is needed between producer and consumer
  stages — the redundant-computation criterion therefore prices overlap
  at **both** levels.
* The paper's L1→L2 crossover reappears one level down: when a warp
  tile would spend more than half its computation on warp-level halo
  (deep stencil chains, small register budgets), the model falls back to
  *block* mode — warps cooperatively stripe the block through shared
  memory with block-wide synchronisation instead of private halos, so
  the warp-level overlap term vanishes while the block-level one stays.
  The mode lands in ``GroupCost.cache_level`` (``"warp"``/``"block"``).

The four criteria and their weights are the same on both: on a GPU,
locality is global-memory traffic per point at block granularity,
parallelism is the cleanup-wave idle fraction over
``num_sms * resident_blocks_per_sm``, redundant computation sums both
halo levels, and the dimension-mismatch term is geometry-only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple,
)

from ..dsl.function import Function
from ..dsl.pipeline import Pipeline
from ..poly.alignscale import GroupGeometry, compute_group_geometry
from ..resilience.faults import maybe_fail
from ..poly.footprint import (
    intermediate_buffers_size,
    livein_tile_size,
    liveout_tile_size,
    liveouts_size,
)
from ..poly.overlap import overlap_size, overlap_size_chunked, tile_volume
from ..poly.reuse import dimensional_reuse
from ..profiling import PROFILE
from .machine import GpuMachine, Machine
from .tilesize import (
    compute_tile_sizes,
    compute_two_level_tile_sizes,
    tile_residency_bytes,
)
from .weights import CostWeights

__all__ = [
    "GroupCost",
    "CostModel",
    "group_cost",
    "cpu_group_cost",
    "gpu_group_cost",
]

INFINITE_COST = float("inf")


@dataclass(frozen=True)
class GroupCost:
    """Result of evaluating one group.

    ``cost`` is infinite for invalid groups, in which case ``tile_sizes``
    is empty and ``geom`` is ``None``.  ``details`` records the individual
    criteria for reports and tests.
    """

    cost: float
    tile_sizes: Tuple[int, ...]
    geom: Optional[GroupGeometry]
    cache_level: str = ""
    details: Dict[str, float] = field(default_factory=dict)
    #: inner-level (warp) tile sizes of the two-level GPU model; empty on
    #: the single-level CPU path
    inner_tile_sizes: Tuple[int, ...] = ()

    @property
    def valid(self) -> bool:
        return math.isfinite(self.cost)


def _num_tiles(geom: GroupGeometry, tile_sizes: Sequence[int]) -> int:
    n = 1
    for extent, t in zip(geom.grid_extents, tile_sizes):
        n *= -(-extent // t)
    return n


def _dim_size_deviation(geom: GroupGeometry) -> float:
    """Mean relative deviation of fused dimension extents across stages
    (``dimSizeStandardDeviation``): 0 when every stage spans the same
    scaled extent along every dimension."""
    per_dim = []
    for g in range(geom.ndim):
        extents = []
        for s in geom.stages:
            for j, gd in enumerate(geom.align[s]):
                if gd == g:
                    lo, hi = geom._scaled_bounds_cache[s][j]
                    extents.append(hi - lo + 1)
        if len(extents) < 2:
            continue
        mean = sum(extents) / len(extents)
        var = sum((e - mean) ** 2 for e in extents) / len(extents)
        per_dim.append(math.sqrt(var) / mean if mean else 0.0)
    return sum(per_dim) / len(per_dim) if per_dim else 0.0


def _cost_for_cache_size(
    pipeline: Pipeline,
    geom: GroupGeometry,
    machine: Machine,
    cache_size: int,
    ncores: int,
    weights: CostWeights,
    halo_reuse: bool = False,
) -> Tuple[float, Tuple[int, ...], float, Dict[str, float]]:
    """``COSTFORCACHESIZE``: cost and tile sizes for one cache level.

    With ``halo_reuse`` the redundant-computation criterion prices the
    executor's halo-reuse mode — only the first tile of a run of adjacent
    tiles pays the carry-dimension overlap
    (:func:`~repro.poly.overlap.overlap_size_chunked`) — so tile-shape
    decisions driven by the overlap term (notably the L1→L2 fallback)
    re-optimise for the reuse regime.  Off by default: the shipped
    schedules stay bit-identical to the pre-reuse model.
    """
    liveout_total = liveouts_size(pipeline, geom)
    total_footprint = intermediate_buffers_size(pipeline, geom) + liveout_total
    tile_footprint = min(total_footprint / ncores, float(cache_size))
    tile_footprint = max(tile_footprint, float(machine.cache_line))

    t0 = time.perf_counter() if PROFILE.enabled else 0.0
    dim_reuse = dimensional_reuse(pipeline, geom)
    tile_sizes = compute_tile_sizes(
        geom, tile_footprint, machine.innermost_tile_size, dim_reuse
    )
    if PROFILE.enabled:
        PROFILE.add_time("tile_size_search", time.perf_counter() - t0)

    livein_t = livein_tile_size(pipeline, geom, tile_sizes)
    liveout_t = liveout_tile_size(pipeline, geom, tile_sizes)
    comp_vol = tile_volume(geom, tile_sizes)
    n_tiles = _num_tiles(geom, tile_sizes)
    ovl = (
        overlap_size_chunked(geom, tile_sizes)
        if halo_reuse
        else overlap_size(geom, tile_sizes)
    )

    # Actual resident working set of the chosen tiles: the largest single
    # stage tile (the producer-pass-to-consumer-pass reuse distance).
    # Innermost-size pinning and dimension clamping can push this past the
    # cache budget the tiles were derived from — especially in groups with
    # non-unit scales — so re-check it and charge the spill traffic.
    from ..poly.overlap import stage_tile_extents

    resident = 0.0
    for s in geom.stages:
        vol = 1.0
        for e in stage_tile_extents(geom, tile_sizes, s):
            vol *= e
        resident = max(
            resident, vol * geom.stage_density_float(s) * s.scalar_type.size
        )
    spill = 2.0 * max(0.0, resident - machine.l2_cache)

    bytes_per_point = (livein_t + liveout_t + spill) / comp_vol
    relative_overlap = ovl / comp_vol
    # Load-imbalance overhead of distributing n_tiles over the cores in
    # waves: the fraction of extra wall-clock the cleanup wave costs
    # (= ncores - 1 when a single tile serialises the machine).
    waves = -(-n_tiles // ncores)
    idle_fraction = (waves * ncores - n_tiles) / n_tiles
    idle_fraction = min(idle_fraction, float(ncores - 1))
    dim_diff = _dim_size_deviation(geom)

    total_points = sum(pipeline.domain_size(s) for s in geom.stages)
    per_point = (
        weights.w1 * bytes_per_point
        + weights.w2 * idle_fraction
        + weights.w3 * relative_overlap
        + weights.w4 * dim_diff
    )
    cost = per_point * total_points
    details = {
        "bytes_per_point": bytes_per_point,
        "idle_fraction": idle_fraction,
        "relative_overlap": relative_overlap,
        "dim_diff": dim_diff,
        "n_tiles": float(n_tiles),
        "tile_footprint": tile_footprint,
        "comp_vol": comp_vol,
        "overlap": ovl,
        "livein_tile": livein_t,
        "liveout_tile": liveout_t,
        "resident": resident,
    }
    return cost, tile_sizes, ovl, details


def group_cost(
    pipeline: Pipeline,
    members: Iterable[Function],
    machine,
    ncores: Optional[int] = None,
    weights: Optional[CostWeights] = None,
    halo_reuse: bool = False,
) -> GroupCost:
    """``COST(H)`` priced by the function of ``machine``'s type (see the
    module docstring); ``TypeError`` for any other type."""
    return _priced_by(machine)(
        pipeline, members, machine, ncores=ncores, weights=weights,
        halo_reuse=halo_reuse,
    )


def cpu_group_cost(
    pipeline: Pipeline,
    members: Iterable[Function],
    machine: Machine,
    ncores: Optional[int] = None,
    weights: Optional[CostWeights] = None,
    halo_reuse: bool = False,
) -> GroupCost:
    """``COST(H)`` — Algorithm 2's top-level entry (the CPU model).

    Evaluates the L1 footprint first and falls back to L2 when the L1 tile
    would spend more than half its computation on overlap (the paper's
    "overlap size exceeds the tile volume" condition).  ``halo_reuse``
    prices the executor's halo-reuse mode (chunk-amortised overlap) — off
    by default so schedules are unchanged.
    """
    ncores = ncores or machine.num_cores
    weights = weights or machine.weights
    geom = compute_group_geometry(pipeline, members)
    if geom is None:
        return GroupCost(cost=INFINITE_COST, tile_sizes=(), geom=None)

    cost, tiles, ovl, details = _cost_for_cache_size(
        pipeline, geom, machine, machine.l1_cache, ncores, weights,
        halo_reuse=halo_reuse,
    )
    level = "L1"
    comp_vol = details["comp_vol"]
    # Fall back to L2 sizing when the L1 tiles spend more than half their
    # computation on overlap, or when the resident set cannot actually
    # fit in L1 (the innermost pin overrode the budget).
    if ovl > comp_vol - ovl or details["resident"] > machine.l1_cache:
        cost, tiles, ovl, details = _cost_for_cache_size(
            pipeline, geom, machine, machine.l2_cache, ncores, weights,
            halo_reuse=halo_reuse,
        )
        level = "L2"
    return GroupCost(
        cost=cost, tile_sizes=tiles, geom=geom, cache_level=level, details=details
    )


def gpu_group_cost(
    pipeline,
    members: Iterable,
    machine: GpuMachine,
    ncores: Optional[int] = None,
    weights=None,
    halo_reuse: bool = False,
) -> GroupCost:
    """``COST(H)`` under the two-level GPU tile hierarchy.

    Returns a :class:`GroupCost` whose ``tile_sizes`` are the block
    tiles, ``inner_tile_sizes`` the warp tiles, and ``cache_level`` the
    chosen mode (``"warp"`` or ``"block"``, see the module docstring).
    ``halo_reuse`` prices chunk-amortised halos at the block level, the
    same discount the CPU model applies — the warp level never reuses
    halos (warps own no carried state across block boundaries).
    """
    ncores = ncores or machine.num_cores
    weights = weights or machine.weights
    geom = compute_group_geometry(pipeline, members)
    if geom is None:
        return GroupCost(cost=INFINITE_COST, tile_sizes=(), geom=None)

    dim_reuse = dimensional_reuse(pipeline, geom)
    block, warp = compute_two_level_tile_sizes(geom, machine, dim_reuse)

    comp_vol = tile_volume(geom, block)
    n_tiles = _num_tiles(geom, block)
    block_ovl = (
        overlap_size_chunked(geom, block)
        if halo_reuse
        else overlap_size(geom, block)
    )

    # Warp-level crossover (the L1->L2 rule one level down): private
    # warp halos must not dominate warp compute.
    warp_vol = tile_volume(geom, warp)
    warp_ovl = overlap_size(geom, warp)
    level = "warp"
    if warp_ovl > warp_vol - warp_ovl:
        level = "block"
        # Cooperative striping: one innermost-dim strip per warp, no
        # warp-level halo (block-wide syncs between stages instead).
        warp = tuple(
            [1] * (geom.ndim - 1) + [warp[-1]] if geom.ndim > 1 else [warp[-1]]
        )
        warp_ovl = 0.0

    warps_per_block = 1
    for b, w in zip(block, warp):
        warps_per_block *= -(-b // w)
    relative_warp_overlap = warp_ovl * warps_per_block / comp_vol

    livein_t = livein_tile_size(pipeline, geom, block)
    liveout_t = liveout_tile_size(pipeline, geom, block)
    # Shared-memory spill: the search fits block residency by
    # construction, but the terminal all-ones tile of a pathological
    # group can still exceed the budget — charge the round trip.
    resident = tile_residency_bytes(geom, block)
    spill = 2.0 * max(0.0, resident - machine.shared_mem_per_block)
    bytes_per_point = (livein_t + liveout_t + spill) / comp_vol

    relative_overlap = block_ovl / comp_vol + relative_warp_overlap
    waves = -(-n_tiles // ncores)
    idle_fraction = (waves * ncores - n_tiles) / n_tiles
    idle_fraction = min(idle_fraction, float(ncores - 1))
    dim_diff = _dim_size_deviation(geom)

    total_points = sum(pipeline.domain_size(s) for s in geom.stages)
    per_point = (
        weights.w1 * bytes_per_point
        + weights.w2 * idle_fraction
        + weights.w3 * relative_overlap
        + weights.w4 * dim_diff
    )
    details = {
        "bytes_per_point": bytes_per_point,
        "idle_fraction": idle_fraction,
        "relative_overlap": relative_overlap,
        "block_overlap": block_ovl,
        "warp_overlap": warp_ovl,
        "warps_per_block": float(warps_per_block),
        "dim_diff": dim_diff,
        "n_tiles": float(n_tiles),
        "comp_vol": comp_vol,
        "resident": resident,
        "livein_tile": livein_t,
        "liveout_tile": liveout_t,
    }
    return GroupCost(
        cost=per_point * total_points,
        tile_sizes=block,
        geom=geom,
        cache_level=level,
        details=details,
        inner_tile_sizes=warp,
    )


def _priced_by(machine) -> Callable[..., GroupCost]:
    """The cost function for ``machine``'s type."""
    if isinstance(machine, GpuMachine):
        return gpu_group_cost
    if isinstance(machine, Machine):
        return cpu_group_cost
    raise TypeError(
        f"no cost model prices machine type {type(machine).__name__!r}; "
        f"expected Machine or GpuMachine"
    )


class CostModel:
    """Memoising wrapper around :func:`group_cost` for one
    (pipeline, machine) pair — the DP evaluates the same group inside many
    different states, so caching by member set is essential.

    The cache is keyed by a stage *bitmask* (bit ``i`` = stage ``i`` in
    pipeline order) rather than a ``frozenset`` of stage objects: hashing
    one int is far cheaper than hashing a set of objects on the DP hot
    path, and the key is stable across pipeline rebuilds with the same
    stage order."""

    def __init__(
        self,
        pipeline: Pipeline,
        machine,
        ncores: Optional[int] = None,
        weights: Optional[CostWeights] = None,
        halo_reuse: bool = False,
    ):
        self.pipeline = pipeline
        self.machine = machine
        self._price = _priced_by(machine)
        self.ncores = ncores or machine.num_cores
        self.weights = weights or machine.weights
        self.halo_reuse = halo_reuse
        self._bit: Dict[Function, int] = {
            s: 1 << i for i, s in enumerate(pipeline.stages)
        }
        self._cache: Dict[int, GroupCost] = {}
        self.evaluations = 0  # distinct groups costed (for Table 2 stats)

    def cost(self, members: Iterable[Function]) -> GroupCost:
        members = tuple(members)
        bit = self._bit
        mask = 0
        for s in members:
            mask |= bit[s]
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        key: FrozenSet[Function] = frozenset(members)
        maybe_fail(
            "cost", detail="+".join(sorted(s.name for s in key))
        )
        self.evaluations += 1
        t0 = time.perf_counter() if PROFILE.enabled else 0.0
        result = self._price(
            self.pipeline, key, self.machine, ncores=self.ncores,
            weights=self.weights, halo_reuse=self.halo_reuse,
        )
        if PROFILE.enabled:
            PROFILE.add_time("cost_eval", time.perf_counter() - t0)
            PROFILE.add_counter("cost_evaluations")
        self._cache[mask] = result
        return result
