"""The GPU backend: two-level (block/warp) overlapped tiling.

The GPU follow-up paper ("Model-Based Warp Overlapped Tiling for Image
Processing Programs on GPUs") maps the PPoPP cost model onto the CUDA
hierarchy.  :func:`gpu_group_cost` is that mapping:

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
  The mode lands in ``GroupCost.cache_level`` (``"warp"``/``"block"``),
  giving the analytically testable crossover *shape* the CI smoke job
  asserts without a GPU.

The four cost criteria and their weights are unchanged from Sec. 4 —
locality is global-memory traffic per point at block granularity,
parallelism is the cleanup-wave idle fraction over
``num_sms * resident_blocks_per_sm``, redundant computation sums both
halo levels, and the dimension-mismatch term is geometry-only.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..model.cost import (
    GroupCost,
    INFINITE_COST,
    _dim_size_deviation,
    _num_tiles,
)
from ..model.machine import GPU_A100, GPU_V100, GpuMachine
from ..model.tilesize import (
    compute_two_level_tile_sizes,
    tile_residency_bytes,
)
from ..poly.alignscale import compute_group_geometry
from ..poly.footprint import livein_tile_size, liveout_tile_size
from ..poly.overlap import overlap_size, overlap_size_chunked, tile_volume
from ..poly.reuse import dimensional_reuse
from .base import Backend, register_backend

__all__ = ["GpuBackend", "GPU_BACKEND", "gpu_group_cost"]


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
    chosen mode (``"warp"`` or ``"block"``, see module docstring).
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


class GpuBackend(Backend):
    """Two-level block/warp tile model (scheduling only: its schedules
    run on the one CPU executor, see ``docs/backends.md``)."""

    name = "gpu"

    _MACHINES = {"gpu-v100": GPU_V100, "gpu-a100": GPU_A100}

    def machines(self) -> Dict[str, object]:
        return dict(self._MACHINES)

    def default_machine_name(self) -> str:
        return "gpu-v100"

    def owns_machine(self, machine: object) -> bool:
        return isinstance(machine, GpuMachine)

    def group_cost(
        self,
        pipeline,
        members: Iterable,
        machine,
        ncores: Optional[int] = None,
        weights=None,
        halo_reuse: bool = False,
    ) -> GroupCost:
        return gpu_group_cost(
            pipeline, members, machine, ncores=ncores, weights=weights,
            halo_reuse=halo_reuse,
        )


GPU_BACKEND = register_backend(GpuBackend())
