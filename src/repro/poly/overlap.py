"""Overlap (redundant computation) and tile volume for overlapped tiling.

With overlapped tiling, each tile of a fused group recomputes the
overlapping region shared with neighbouring tiles (Fig. 2 of the paper) so
tiles can run in parallel without synchronisation.  ``OVERLAPSIZE`` in
Algorithm 2 is the total volume of that redundant computation for one tile;
``COMPUTETILEVOLUME`` is the total points computed per tile including the
overlap.  Both are computed here from a group's
:class:`~repro.poly.alignscale.GroupGeometry` and candidate tile sizes.

All volumes are in *actual iteration points*: a stage scaled by 1/2 packs
two points per unit of scaled grid, which the per-stage density factor
accounts for.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..dsl.function import Function
from .alignscale import GroupGeometry

__all__ = [
    "overlap_size",
    "overlap_size_chunked",
    "tile_volume",
    "stage_tile_extents",
    "reuse_carry_dim",
]


def _clamped_extent(tile: int, left: int, right: int, dim_extent: int) -> int:
    """Extent of an expanded tile along one dimension, clamped to the
    grid: a tile cannot be larger than the stage's full extent."""
    return min(tile + left + right, dim_extent)


def stage_tile_extents(
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    stage: Function,
) -> Tuple[int, ...]:
    """Scaled extents of one stage's (expanded) tile per group dimension.

    Memoised per (stage, tile shape) on the geometry — the footprint,
    volume and residency passes each ask for the same extents while
    costing one candidate tile shape.
    """
    key = (stage, tuple(tile_sizes))
    hit = geom._tile_ext_cache.get(key)
    if hit is not None:
        return hit
    radii = geom.expansion_radii()[stage]
    extents = geom.grid_extents
    result = tuple(
        _clamped_extent(tile_sizes[g], radii[g][0], radii[g][1], extents[g])
        for g in range(geom.ndim)
    )
    geom._tile_ext_cache[key] = result
    return result


def tile_volume(geom: GroupGeometry, tile_sizes: Sequence[int]) -> float:
    """Total iteration points computed by one tile of the group, including
    redundant overlap regions (``COMPUTETILEVOLUME`` of Algorithm 2)."""
    if len(tile_sizes) != geom.ndim:
        raise ValueError(
            f"expected {geom.ndim} tile sizes, got {len(tile_sizes)}"
        )
    # Extents are ints; densities come pre-scaled to a common denominator
    # so the whole sum is one integer accumulation and a single division.
    # Exact, and ``int / int`` true division is correctly rounded — the
    # same float as the all-Fraction accumulation.
    common, mult = geom.density_multipliers()
    total = 0
    for stage in geom.stages:
        vol = 1
        for e in stage_tile_extents(geom, tile_sizes, stage):
            vol *= e
        total += mult[stage] * vol
    return total / common


def overlap_size(geom: GroupGeometry, tile_sizes: Sequence[int]) -> float:
    """Redundant computation per tile (``OVERLAPSIZE`` of Algorithm 2):
    the expanded tile volume minus the base tile volume, summed over the
    group's stages."""
    if len(tile_sizes) != geom.ndim:
        raise ValueError(
            f"expected {geom.ndim} tile sizes, got {len(tile_sizes)}"
        )
    extents = geom.grid_extents
    common, mult = geom.density_multipliers()
    total = 0
    for stage in geom.stages:
        expanded = 1
        base = 1
        ext = stage_tile_extents(geom, tile_sizes, stage)
        for g in range(geom.ndim):
            expanded *= ext[g]
            base *= min(tile_sizes[g], extents[g])
        total += mult[stage] * (expanded - base)
    return total / common


def reuse_carry_dim(geom: GroupGeometry, tile_sizes: Sequence[int]) -> int:
    """The grid dimension the halo-reuse executor carries windows along
    for this group and tile shape, or ``-1`` when reuse cannot engage
    (single-tile grid): the first dimension with more than one tile and a
    stage halo — the dim along which overlapped tiles redundantly
    recompute each other's points — falling back to the first dimension
    with more than one tile (a group with no halo anywhere still pays
    each stage body's fixed per-call cost once per run instead of once
    per tile).  The executor calls this function, so model-side discounts
    price the execution that actually happens."""
    radii = geom.expansion_radii()
    extents = geom.grid_extents
    fallback = -1
    for g in range(geom.ndim):
        if tile_sizes[g] >= extents[g]:
            continue
        if fallback < 0:
            fallback = g
        if any(radii[s][g][0] + radii[s][g][1] > 0 for s in geom.stages):
            return g
    return fallback


def overlap_size_chunked(
    geom: GroupGeometry,
    tile_sizes: Sequence[int],
    run_len: int = 0,
) -> float:
    """Amortised redundant computation per tile under halo reuse.

    With inter-tile halo reuse, a run of ``run_len`` adjacent tiles along
    the carry dimension computes each stage once over the *union* of its
    expanded regions: along the carry dimension the union spans
    ``run_len * tile + left + right`` points instead of
    ``run_len * (tile + left + right)``, so the carry-dimension halo is
    paid once per run rather than once per tile.  Overlap along the other
    dimensions is still paid per run (rows do not chain).  ``run_len`` of
    ``0`` (the default) means a full row — what the executor walks at any
    thread count whose grid has at least ``nthreads`` rows (chunks are
    whole rows); with fewer rows it cuts each into ``ceil(nthreads /
    rows)`` runs at most, i.e. ``run_len = ceil(row / ceil(nthreads /
    rows))``.  ``1`` degenerates to :func:`overlap_size` exactly.  Groups
    where reuse cannot engage also fall back to :func:`overlap_size`.
    """
    if len(tile_sizes) != geom.ndim:
        raise ValueError(
            f"expected {geom.ndim} tile sizes, got {len(tile_sizes)}"
        )
    cdim = reuse_carry_dim(geom, tile_sizes)
    if cdim < 0:
        return overlap_size(geom, tile_sizes)
    extents = geom.grid_extents
    n_row = -(-extents[cdim] // tile_sizes[cdim])
    run = n_row if run_len <= 0 else min(run_len, n_row)
    if run <= 1:
        return overlap_size(geom, tile_sizes)
    radii = geom.expansion_radii()
    common, mult = geom.density_multipliers()
    total = 0
    for stage in geom.stages:
        ext = stage_tile_extents(geom, tile_sizes, stage)
        left, right = radii[stage][cdim]
        run_ext = _clamped_extent(
            run * tile_sizes[cdim], left, right, extents[cdim]
        )
        expanded = run_ext  # per-run extent along the carry dim
        base = min(run * tile_sizes[cdim], extents[cdim])
        for g in range(geom.ndim):
            if g == cdim:
                continue
            expanded *= ext[g]
            base *= min(tile_sizes[g], extents[g])
        total += mult[stage] * (expanded - base)
    # ``total`` is the redundant volume of one whole run; amortise it
    # back to the per-tile quantity Algorithm 2 expects.
    return total / (common * run)
