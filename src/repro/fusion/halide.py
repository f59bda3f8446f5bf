"""Halide's greedy auto-scheduler (Mullapudi et al., SIGGRAPH 2016), as
described in Sec. 2.3 of the paper — the H-auto comparator.

The algorithm starts with one group per function, then repeatedly
evaluates every pairwise producer→consumer group merge, estimating for
each the best power-of-two tile configuration and the resulting analytic
cost (arithmetic + ``LOAD_COST`` × loads, with penalties for exceeding the
cache and constraints on parallelism and vector width).  The merge with
the largest positive benefit is applied; the process stops when no merge
is profitable.  Two properties the paper contrasts with PolyMageDP:

* the choice is locally greedy, committing to the best pair first and
  thereby excluding large families of groupings (Fig. 4 discussion), and
* candidate tile sizes are powers of two only, because each one must be
  explicitly evaluated.

Unlike PolyMage, Halide *can* fuse reductions into consumer groups (via
``compute_at``), which is why H-auto/H-manual win on Bilateral Grid
(Sec. 6.2); the fallback path of
:func:`repro.perfmodel.groupmetrics.group_metrics` prices such groups.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..dsl.function import Function
from ..dsl.pipeline import Pipeline
from ..graph.dag import StageGraph, mask_of
from ..model.machine import Machine
from ..perfmodel.groupmetrics import (
    group_metrics,
    stage_ops_per_point,
    stage_work_points,
)
from ..poly.alignscale import compute_group_geometry
from .grouping import Grouping, GroupingStats

__all__ = ["halide_auto_schedule", "halide_group_cost"]

StageSet = FrozenSet[Function]

_POW2 = (8, 16, 32, 64, 128, 256, 512)


def _tile_candidates(
    extents: Sequence[int], machine: Machine
) -> List[Tuple[int, ...]]:
    """Power-of-two tile configurations over the last two dimensions; the
    innermost must hold at least ``VECTOR_WIDTH`` contiguous points."""
    vw = machine.halide.vector_width
    ndim = len(extents)
    inner_opts = [t for t in _POW2 if vw <= t <= extents[-1]]
    if not inner_opts:
        inner_opts = [min(extents[-1], vw)]
    if ndim == 1:
        return [(t,) for t in inner_opts]
    outer_opts = [t for t in _POW2 if t <= extents[-2]] or [extents[-2]]
    prefix = tuple(extents[:-2])  # outer dims (e.g. colour) untiled
    return [
        prefix + (o, i) for o in outer_opts for i in inner_opts
    ]


def halide_group_cost(
    pipeline: Pipeline,
    members: StageSet,
    machine: Machine,
    total_pipeline_bytes: float,
) -> Tuple[float, Tuple[int, ...]]:
    """Halide-style analytic cost of a group and the tile sizes that
    minimise it.

    ``cost = arithmetic + LOAD_COST * loaded_elements``, where loads are
    scaled up when the tile footprint exceeds ``CACHE_SIZE`` (memory
    footprint penalty) and configurations with fewer tiles than
    ``PARALLELISM_THRESHOLD`` are rejected.
    """
    hp = machine.halide
    geom = compute_group_geometry(pipeline, members)
    if geom is not None:
        extents = geom.grid_extents
    else:
        liveouts = [
            s
            for s in members
            if pipeline.is_output(s)
            or any(c not in members for c in pipeline.consumers(s))
        ]
        ref = max(liveouts, key=lambda s: (s.ndim, pipeline.domain_size(s)))
        extents = pipeline.domain_extents(ref)

    best_cost = float("inf")
    best_tiles: Tuple[int, ...] = tuple(min(e, 64) for e in extents)
    candidates = _tile_candidates(extents, machine)
    allow_serial = total_pipeline_bytes < hp.cache_size  # tiny pipelines
    for tiles in candidates:
        metrics = group_metrics(pipeline, members, tiles)
        if metrics.n_tiles < hp.parallelism_threshold and not allow_serial:
            continue
        arith = sum(
            pts * stage_ops_per_point(s)
            for s, pts in metrics.stage_points.items()
        )
        load_bytes = metrics.livein_bytes_total + metrics.liveout_bytes_total
        penalty = max(1.0, metrics.tile_footprint_bytes / hp.cache_size)
        cost = arith + hp.load_cost * (load_bytes / 4.0) * penalty
        if cost < best_cost:
            best_cost = cost
            best_tiles = tiles
    if best_cost == float("inf"):
        # No candidate met the parallelism threshold; fall back to the
        # smallest tiles (most parallelism).
        tiles = candidates[0]
        metrics = group_metrics(pipeline, members, tiles)
        arith = sum(
            pts * stage_ops_per_point(s)
            for s, pts in metrics.stage_points.items()
        )
        load_bytes = metrics.livein_bytes_total + metrics.liveout_bytes_total
        penalty = max(1.0, metrics.tile_footprint_bytes / hp.cache_size)
        best_cost = arith + hp.load_cost * (load_bytes / 4.0) * penalty
        best_tiles = tiles
    return best_cost, best_tiles


def halide_auto_schedule(
    pipeline: Pipeline, machine: Machine
) -> Grouping:
    """Run the greedy auto-grouping and return the resulting schedule."""
    graph = StageGraph.from_pipeline(pipeline)
    index = {s: i for i, s in enumerate(pipeline.stages)}
    total_bytes = float(
        sum(pipeline.domain_size(s) * s.scalar_type.size for s in pipeline.stages)
    )

    groups: List[StageSet] = [frozenset({s}) for s in pipeline.stages]
    cost_cache: Dict[StageSet, Tuple[float, Tuple[int, ...]]] = {}

    def cost_of(g: StageSet) -> Tuple[float, Tuple[int, ...]]:
        hit = cost_cache.get(g)
        if hit is None:
            hit = halide_group_cost(pipeline, g, machine, total_bytes)
            cost_cache[g] = hit
        return hit

    start = time.perf_counter()
    evaluated = 0
    while True:
        # Enumerate producer->consumer group pairs.
        owner: Dict[Function, int] = {}
        for gi, g in enumerate(groups):
            for s in g:
                owner[s] = gi
        pairs = set()
        for p, c in pipeline.edges():
            gp, gc = owner[p], owner[c]
            if gp != gc:
                pairs.add((gp, gc))

        best_benefit = 0.0
        best_pair: Optional[Tuple[int, int]] = None
        for gp, gc in pairs:
            merged = groups[gp] | groups[gc]
            # Validity: the condensation must stay acyclic.
            masks = [
                mask_of(index[s] for s in g)
                for j, g in enumerate(groups)
                if j not in (gp, gc)
            ]
            masks.append(mask_of(index[s] for s in merged))
            if not graph.condensation_is_acyclic(masks):
                continue
            evaluated += 1
            cost_merged, _ = cost_of(merged)
            benefit = cost_of(groups[gp])[0] + cost_of(groups[gc])[0] - cost_merged
            if benefit > best_benefit:
                best_benefit = benefit
                best_pair = (gp, gc)
        if best_pair is None:
            break
        gp, gc = best_pair
        merged = groups[gp] | groups[gc]
        groups = [g for j, g in enumerate(groups) if j not in (gp, gc)]
        groups.append(merged)
    elapsed = time.perf_counter() - start

    masks = [mask_of(index[s] for s in g) for g in groups]
    order = graph.condensation_topo_order(masks)
    ordered = [groups[i] for i in order]
    tiles = [cost_of(g)[1] for g in ordered]
    total_cost = sum(cost_of(g)[0] for g in ordered)

    stats = GroupingStats(
        strategy="halide-auto",
        enumerated=evaluated,
        cost_evaluations=len(cost_cache),
        time_seconds=elapsed,
    )
    return Grouping(
        pipeline=pipeline,
        groups=tuple(ordered),
        tile_sizes=tuple(tiles),
        cost=total_cost,
        stats=stats,
    )
