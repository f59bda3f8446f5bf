"""Fusion strategies: the paper's DP model and every baseline it is
evaluated against."""

from .api import schedule_pipeline
from .autotune import (
    AutotuneResult,
    AutotuneTrial,
    Oracle,
    model_oracle,
    polymage_autotune,
)
from .bounded import dp_group_bounded, inc_grouping
from .dp import DPGrouper, GroupingBudgetExceeded, dp_group
from .greedy import polymage_greedy, uniform_tile_sizes
from .grouping import (
    Grouping,
    GroupingStats,
    manual_grouping,
    singleton_grouping,
)
from .halide import halide_auto_schedule, halide_group_cost
from .schedcache import (
    ScheduleCache,
    schedule_cache_key,
    schedule_cache_params,
)
from .serialize import (
    grouping_from_dict,
    grouping_to_dict,
    load_grouping,
    save_grouping,
)

__all__ = [
    "grouping_to_dict",
    "grouping_from_dict",
    "save_grouping",
    "load_grouping",
    "ScheduleCache",
    "schedule_cache_key",
    "schedule_cache_params",
    "schedule_pipeline",
    "dp_group",
    "dp_group_bounded",
    "inc_grouping",
    "DPGrouper",
    "GroupingBudgetExceeded",
    "polymage_greedy",
    "uniform_tile_sizes",
    "polymage_autotune",
    "AutotuneResult",
    "AutotuneTrial",
    "Oracle",
    "model_oracle",
    "halide_auto_schedule",
    "halide_group_cost",
    "Grouping",
    "GroupingStats",
    "manual_grouping",
    "singleton_grouping",
]
