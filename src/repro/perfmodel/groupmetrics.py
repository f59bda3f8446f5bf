"""Per-group execution metrics shared by the timing model, the Halide
auto-scheduler's benefit estimator, and the auto-tuner oracle.

For groups with a valid overlap-tiling geometry the metrics are exact
(tile counts, per-stage compute volumes including redundant overlap,
live-in/live-out transfer volumes, resident footprints).  Groups *without*
a geometry — e.g. Halide schedules that fuse a reduction with its
consumers, which PolyMage cannot express — use a fallback model on the
live-out stage's domain with no redundant computation, which matches how
Halide's ``compute_at`` realises such fusion (no overlapped tiles, the
reduction is computed per output tile region).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..dsl.expr import count_ops
from ..dsl.function import Function, Reduction
from ..dsl.image import Image
from ..dsl.pipeline import Pipeline
from ..poly.access import summarize_access
from ..poly.alignscale import compute_group_geometry
from ..poly.footprint import livein_tile_size, liveout_tile_size
from ..poly.overlap import stage_tile_extents

__all__ = ["StageTraits", "GroupMetrics", "stage_traits", "group_metrics",
           "stage_work_points", "stage_ops_per_point"]

#: Parallel row chunks assumed for a lone reduction's sweep.
REDUCTION_CHUNKS = 64


@dataclass(frozen=True)
class StageTraits:
    """Code-generation-relevant properties of one stage."""

    integer_heavy: bool
    data_dependent: bool
    ops_per_point: float


def stage_ops_per_point(stage: Function) -> float:
    """Arithmetic operations per iteration point of ``stage``."""
    return float(max(1, sum(count_ops(e) for e in stage.body_expressions())))


def stage_work_points(pipeline: Pipeline, stage: Function) -> int:
    """Iteration points that produce ``stage``'s output: its domain size,
    or the reduction-domain size for reductions (that's where the work
    is)."""
    if isinstance(stage, Reduction):
        size = 1
        for lo, hi in stage.resolve_reduction_domain(pipeline.env):
            size *= hi - lo + 1
        return size
    return pipeline.domain_size(stage)


def stage_traits(pipeline: Pipeline, stage: Function) -> StageTraits:
    """Traits controlling the vectorization behaviour of generated code."""
    data_dep = False
    for acc in pipeline.accesses(stage):
        if not summarize_access(acc, pipeline.env).affine:
            data_dep = True
            break
    if isinstance(stage, Reduction):
        data_dep = True  # scatter accumulation
    return StageTraits(
        integer_heavy=stage.scalar_type.is_integer,
        data_dependent=data_dep,
        ops_per_point=stage_ops_per_point(stage),
    )


@dataclass(frozen=True)
class GroupMetrics:
    """Execution metrics of one fused group under given tile sizes."""

    members: FrozenSet[Function]
    n_tiles: int
    #: per stage, total iteration points including redundant overlap
    stage_points: Dict[Function, float]
    #: bytes loaded from outside the group per tile
    livein_bytes_per_tile: float
    #: bytes stored to live-out buffers per tile
    liveout_bytes_per_tile: float
    #: bytes resident during one tile's execution (scratch + windows)
    tile_footprint_bytes: float
    #: largest single stage tile in bytes — the reuse distance between a
    #: producer's pass and its consumer's pass inside one tile, which is
    #: what must fit in a cache level for intra-tile locality (this is the
    #: quantity behind the L1/L2 hit patterns of the paper's Table 5)
    resident_bytes: float
    #: extent of the tile along the innermost dimension (vectorization /
    #: prefetching effectiveness, Sec. 4.2)
    inner_extent: int
    #: total bytes of *distinct* external data the group reads (each
    #: external producer counted once) — the cap on live-in traffic for
    #: data-dependent access patterns, which read scattered but bounded
    #: data rather than their producer's full extent per tile
    livein_unique_bytes: float
    has_geometry: bool

    @property
    def total_points(self) -> float:
        return sum(self.stage_points.values())

    @property
    def livein_bytes_total(self) -> float:
        return self.livein_bytes_per_tile * self.n_tiles

    @property
    def liveout_bytes_total(self) -> float:
        return self.liveout_bytes_per_tile * self.n_tiles


def _num_tiles(extents: Sequence[int], tiles: Sequence[int]) -> int:
    n = 1
    for e, t in zip(extents, tiles):
        n *= -(-e // max(1, t))
    return n


def _livein_unique(pipeline: Pipeline, member_set: FrozenSet[Function]) -> float:
    """Total bytes of distinct external producers read by the group."""
    total = 0.0
    seen = set()
    for s in member_set:
        for acc in pipeline.accesses(s):
            producer = acc.producer
            if isinstance(producer, Function) and producer in member_set:
                continue
            if producer.name in seen:
                continue
            seen.add(producer.name)
            if isinstance(producer, Image):
                size = 1
                for e in pipeline.image_shape(producer):
                    size *= e
            else:
                size = pipeline.domain_size(producer)
            total += size * producer.scalar_type.size
    return total


def group_metrics(
    pipeline: Pipeline,
    members: Iterable[Function],
    tile_sizes: Sequence[int],
) -> GroupMetrics:
    """Compute :class:`GroupMetrics` for a group with the given tile
    sizes (one per group-grid dimension)."""
    member_set = frozenset(members)

    # A lone reduction is never fused or overlap-tiled (PolyMage leaves
    # reductions unoptimised, Sec. 6.2), but its reduction loop is still
    # data-parallel over row chunks with privatised/atomic accumulation —
    # model it as a fixed number of independent chunks that sweep the
    # inputs once.
    if len(member_set) == 1 and isinstance(next(iter(member_set)), Reduction):
        stage = next(iter(member_set))
        chunks = REDUCTION_CHUNKS
        out_bytes = float(pipeline.domain_size(stage) * stage.scalar_type.size)
        livein = _livein_unique(pipeline, member_set)
        return GroupMetrics(
            members=member_set,
            n_tiles=chunks,
            stage_points={stage: float(stage_work_points(pipeline, stage))},
            livein_bytes_per_tile=livein / chunks,
            liveout_bytes_per_tile=out_bytes / chunks,
            tile_footprint_bytes=out_bytes / chunks,
            resident_bytes=0.0,  # streaming: rows, not a resident tile
            inner_extent=pipeline.domain_extents(stage)[-1],
            livein_unique_bytes=livein,
            has_geometry=False,
        )

    geom = compute_group_geometry(pipeline, member_set)

    if geom is not None:
        if len(tile_sizes) != geom.ndim:
            raise ValueError(
                f"group of {[s.name for s in member_set]} has {geom.ndim} "
                f"grid dims but got {len(tile_sizes)} tile sizes"
            )
        n_tiles = _num_tiles(geom.grid_extents, tile_sizes)
        stage_points: Dict[Function, float] = {}
        footprint = 0.0
        resident = 0.0
        for s in geom.stages:
            ext = stage_tile_extents(geom, tile_sizes, s)
            vol = 1.0
            for e in ext:
                vol *= e
            pts_per_tile = vol * float(geom.stage_density(s))
            stage_points[s] = pts_per_tile * n_tiles
            stage_bytes = pts_per_tile * s.scalar_type.size
            footprint += stage_bytes
            resident = max(resident, stage_bytes)
        inner = min(tile_sizes[-1], geom.grid_extents[-1])
        return GroupMetrics(
            members=member_set,
            n_tiles=n_tiles,
            stage_points=stage_points,
            livein_bytes_per_tile=livein_tile_size(pipeline, geom, tile_sizes),
            liveout_bytes_per_tile=liveout_tile_size(pipeline, geom, tile_sizes),
            tile_footprint_bytes=footprint,
            resident_bytes=resident,
            inner_extent=inner,
            livein_unique_bytes=_livein_unique(pipeline, member_set),
            has_geometry=True,
        )

    # ---- fallback: no overlap-tiling geometry (a Halide-style schedule
    # fusing a reduction or across constant-index channel mixes, realised
    # with ``compute_at``).  Tile on the live-out stage's domain and
    # propagate per-tile region extents backwards through the affine
    # accesses: producers compute the region their in-group consumers
    # need, so halos (and the recompute they imply at pyramid scale
    # changes) still accumulate even without a common constant-dependence
    # grid.
    liveouts = [
        s
        for s in member_set
        if pipeline.is_output(s)
        or any(c not in member_set for c in pipeline.consumers(s))
    ]
    ref = max(liveouts, key=lambda s: (s.ndim, pipeline.domain_size(s)))
    extents = pipeline.domain_extents(ref)
    if len(tile_sizes) != len(extents):
        raise ValueError(
            f"group of {sorted(s.name for s in member_set)} tiles on "
            f"{ref.name!r}'s {len(extents)}-d domain but got "
            f"{len(tile_sizes)} tile sizes"
        )
    n_tiles = _num_tiles(extents, tile_sizes)

    # Per-stage per-tile region extents (per stage dimension).
    members_topo = [s for s in pipeline.stages if s in member_set]
    region: Dict[Function, list] = {}
    for s in members_topo:
        dom = pipeline.domain_extents(s)
        if s in liveouts:
            base = [
                min(t, e)
                for t, e in zip(
                    tile_sizes[len(tile_sizes) - s.ndim:], dom[-s.ndim:]
                )
            ]
            # leading dims not covered by the (trailing) tile spec
            base = list(dom[: s.ndim - len(base)]) + base
        else:
            base = [1] * s.ndim
        region[s] = base
    # Distinct constant indices read along a producer dimension (channel
    # selects) union into the needed region.
    const_reads: Dict[Tuple[str, int], set] = {}
    for consumer in reversed(members_topo):
        var_dim = {v.name: j for j, v in enumerate(consumer.variables)}
        if isinstance(consumer, Reduction):
            # the reduction sweeps its whole reduction domain per tile
            # region of its output — treat reads as full sweeps below.
            var_dim.update({v.name: None for v in consumer.reduction_variables})
        c_region = region[consumer]
        for acc in pipeline.accesses(consumer):
            producer = acc.producer
            if not (isinstance(producer, Function) and producer in member_set):
                continue
            summary = summarize_access(acc, pipeline.env)
            p_dom = pipeline.domain_extents(producer)
            p_region = region[producer]
            for j, dim in enumerate(summary.dims):
                full = p_dom[j]
                if not dim.affine:
                    need = full
                elif dim.var is None:
                    seen = const_reads.setdefault((producer.name, j), set())
                    seen.add(dim.off // dim.den)
                    need = len(seen)
                else:
                    k = var_dim.get(dim.var)
                    if k is None:
                        need = full
                    else:
                        need = int(c_region[k] * dim.num / dim.den) + 2
                p_region[j] = min(full, max(p_region[j], need))

    stage_points = {}
    footprint = 0.0
    for s in members_topo:
        per_tile = 1.0
        for e in region[s]:
            per_tile *= e
        if isinstance(s, Reduction):
            per_tile = float(stage_work_points(pipeline, s)) / n_tiles
        stage_points[s] = per_tile * n_tiles
        footprint += per_tile * s.scalar_type.size

    # Live-ins: external producers, tile-proportional share.
    livein_unique = _livein_unique(pipeline, member_set)
    livein = livein_unique / n_tiles
    liveout = sum(
        pipeline.domain_size(s) * s.scalar_type.size / n_tiles
        for s in liveouts
    )
    resident = max(
        stage_points[s] / n_tiles * s.scalar_type.size for s in member_set
    )
    return GroupMetrics(
        members=member_set,
        n_tiles=n_tiles,
        stage_points=stage_points,
        livein_bytes_per_tile=livein,
        liveout_bytes_per_tile=liveout,
        tile_footprint_bytes=footprint,
        resident_bytes=resident,
        inner_extent=min(tile_sizes[-1], extents[-1]),
        livein_unique_bytes=livein_unique,
        has_geometry=False,
    )
