"""Performance substrate: analytic timing model and cache simulator —
the stand-ins for the paper's Xeon/Opteron testbeds."""

from .groupmetrics import (
    GroupMetrics,
    StageTraits,
    group_metrics,
    stage_ops_per_point,
    stage_traits,
    stage_work_points,
)
from .sweep import TilePoint, sweep_tiles
from .timing import TimingBreakdown, estimate_group_time, estimate_runtime

__all__ = [
    "GroupMetrics",
    "StageTraits",
    "group_metrics",
    "stage_traits",
    "stage_ops_per_point",
    "stage_work_points",
    "estimate_runtime",
    "sweep_tiles",
    "TilePoint",
    "estimate_group_time",
    "TimingBreakdown",
]
