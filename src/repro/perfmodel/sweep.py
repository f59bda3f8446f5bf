"""Tile-size sensitivity sweeps.

Given a fused group, sweep a grid of tile configurations and collect, for
each, the model's view (overlap fraction, footprint, resident set,
estimated run time) — the data behind Table 5-style analyses for any
benchmark, and a convenient way to visualise how flat or sharp the tile
optimum is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..dsl.function import Function
from ..dsl.pipeline import Pipeline
from ..model.machine import Machine
from ..poly.alignscale import compute_group_geometry
from ..poly.overlap import overlap_size, tile_volume
from .groupmetrics import group_metrics
from .timing import estimate_group_time

__all__ = ["TilePoint", "sweep_tiles"]


@dataclass(frozen=True)
class TilePoint:
    """One swept tile configuration of a group."""

    tile_sizes: Tuple[int, ...]
    overlap_fraction: float
    tile_footprint_bytes: float
    resident_bytes: float
    n_tiles: int
    estimated_ms: float
    #: resident set within the sweeping machine's L1
    fits_l1: bool


def sweep_tiles(
    pipeline: Pipeline,
    members: Iterable[Function],
    machine: Machine,
    outer_sizes: Sequence[int] = (4, 5, 8, 16, 32, 64, 128),
    inner_sizes: Optional[Sequence[int]] = None,
    nthreads: Optional[int] = None,
    codegen: str = "polymage",
) -> List[TilePoint]:
    """Sweep tile sizes over the last two dimensions of a fused group.

    Outer dimensions beyond the last two are left untiled.  Returns one
    :class:`TilePoint` per configuration, sorted by estimated time.
    """
    member_set = frozenset(members)
    geom = compute_group_geometry(pipeline, member_set)
    if geom is None:
        raise ValueError("group has no overlap-tiling geometry")
    nthreads = nthreads or machine.num_cores
    extents = geom.grid_extents
    inner_sizes = inner_sizes or (
        machine.innermost_tile_size // 2,
        machine.innermost_tile_size,
    )

    points: List[TilePoint] = []
    seen = set()
    for outer in outer_sizes:
        for inner in inner_sizes:
            tiles = list(extents[:-2]) if geom.ndim >= 2 else []
            if geom.ndim >= 2:
                tiles += [min(outer, extents[-2]), min(inner, extents[-1])]
            else:
                tiles = [min(inner, extents[-1])]
            key = tuple(tiles)
            if key in seen:
                continue
            seen.add(key)
            metrics = group_metrics(pipeline, member_set, key)
            vol = tile_volume(geom, key)
            ovl = overlap_size(geom, key)
            parts = estimate_group_time(
                pipeline, metrics, machine, nthreads, codegen
            )
            points.append(TilePoint(
                tile_sizes=key,
                overlap_fraction=ovl / vol if vol else 0.0,
                tile_footprint_bytes=metrics.tile_footprint_bytes,
                resident_bytes=metrics.resident_bytes,
                n_tiles=metrics.n_tiles,
                estimated_ms=parts["total_s"] * 1e3,
                fits_l1=metrics.resident_bytes <= machine.l1_cache,
            ))
    points.sort(key=lambda p: p.estimated_ms)
    return points
