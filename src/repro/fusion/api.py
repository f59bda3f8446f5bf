"""One-call scheduling entry point.

:func:`schedule_pipeline` dispatches to every strategy this repository
implements:

========================  ====================================================
strategy                  meaning
========================  ====================================================
``"dp"``                  the paper's PolyMageDP (unbounded DP, Sec. 3)
``"dp-bounded"``          one bounded DP pass (``group_limit`` required)
``"dp-incremental"``      Algorithm 3 (bounded passes with collapsing)
``"greedy"``              PolyMage's greedy heuristic at fixed parameters
``"polymage-auto"``       PolyMage-A: greedy + auto-tuning (Sec. 6.1)
``"halide-auto"``         H-auto: Halide's greedy auto-scheduler (Sec. 2.3)
``"no-fusion"``           every stage its own group, untiled semantics
========================  ====================================================

For production paths that must *never* fail to schedule, see
:func:`repro.resilience.resilient_schedule`, which walks the degradation
chain ``dp → dp-incremental → greedy → no-fusion`` under hard budgets.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..dsl.pipeline import Pipeline
from ..model.cost import CostModel
from ..model.machine import Machine
from ..obs import METRICS, TRACE
from .autotune import polymage_autotune
from .bounded import dp_group_bounded, inc_grouping
from .dp import dp_group
from .greedy import polymage_greedy
from .grouping import Grouping, singleton_grouping
from .halide import halide_auto_schedule
from .schedcache import (
    ScheduleCache,
    schedule_cache_key,
    schedule_cache_params,
)

__all__ = ["schedule_pipeline"]

#: strategies whose result is deterministic in (pipeline, machine,
#: weights, params) and therefore cacheable across processes
_CACHEABLE = ("dp", "dp-bounded", "dp-incremental", "greedy")

_STRATEGIES = (
    "dp",
    "dp-bounded",
    "dp-incremental",
    "greedy",
    "polymage-auto",
    "halide-auto",
    "no-fusion",
)


def schedule_pipeline(
    pipeline: Pipeline,
    machine: Machine,
    strategy: str = "dp",
    *,
    group_limit: Optional[int] = None,
    initial_limit: int = 8,
    step: int = 4,
    tile_size: int = 64,
    overlap_tolerance: float = 0.4,
    nthreads: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    max_states: Optional[int] = None,
    time_budget_s: Optional[float] = None,
    prune: bool = False,
    schedule_cache: Optional[Union[str, ScheduleCache]] = None,
) -> Grouping:
    """Schedule ``pipeline`` for ``machine`` with the chosen strategy.

    See the module docstring for the strategy catalogue; keyword arguments
    not relevant to the chosen strategy are ignored.  ``max_states`` and
    ``time_budget_s`` bound the DP strategies; exceeding either raises
    ``SCHED_BUDGET`` (:class:`repro.errors.GroupingBudgetExceeded`).

    ``prune`` turns on the lossless branch-and-bound / dominance pruning
    of the DP strategies (identical result, fewer explored states).

    ``schedule_cache`` (a directory path or a
    :class:`~repro.fusion.schedcache.ScheduleCache`) makes deterministic
    strategies persistent across processes: a hit returns the stored
    grouping without any cost-model evaluation, a stale entry is evicted
    and re-scheduled.
    """
    from ..backend import backend_name_for

    observing = METRICS.enabled
    t0 = time.perf_counter() if observing else 0.0
    with TRACE.span(
        "schedule_pipeline", pipeline=pipeline.name, strategy=strategy,
        backend=backend_name_for(machine),
    ) as span:
        grouping = _schedule_pipeline(
            pipeline, machine, strategy,
            group_limit=group_limit, initial_limit=initial_limit,
            step=step, tile_size=tile_size,
            overlap_tolerance=overlap_tolerance, nthreads=nthreads,
            cost_model=cost_model, max_states=max_states,
            time_budget_s=time_budget_s, prune=prune,
            schedule_cache=schedule_cache, span=span,
        )
    if observing:
        METRICS.observe(
            "repro_schedule_seconds", time.perf_counter() - t0,
            strategy=strategy,
        )
    return grouping


def _schedule_pipeline(
    pipeline: Pipeline,
    machine: Machine,
    strategy: str,
    *,
    group_limit: Optional[int],
    initial_limit: int,
    step: int,
    tile_size: int,
    overlap_tolerance: float,
    nthreads: Optional[int],
    cost_model: Optional[CostModel],
    max_states: Optional[int],
    time_budget_s: Optional[float],
    prune: bool,
    schedule_cache: Optional[Union[str, ScheduleCache]],
    span,
) -> Grouping:
    from ..backend import backend_name_for

    cache: Optional[ScheduleCache] = None
    key = ""
    if schedule_cache is not None and strategy in _CACHEABLE:
        cache = (
            schedule_cache
            if isinstance(schedule_cache, ScheduleCache)
            else ScheduleCache(schedule_cache)
        )
        key = schedule_cache_key(
            pipeline, machine, strategy=strategy,
            params=schedule_cache_params(
                strategy, group_limit=group_limit,
                initial_limit=initial_limit, step=step,
                tile_size=tile_size, overlap_tolerance=overlap_tolerance,
            ),
        )
        hit = cache.load(pipeline, key, backend=backend_name_for(machine))
        if hit is not None:
            span.set(cache="hit")
            return hit
        span.set(cache="miss")

    if strategy == "dp":
        grouping = dp_group(
            pipeline, machine, cost_model=cost_model,
            group_limit=group_limit, max_states=max_states,
            time_budget_s=time_budget_s, prune=prune,
        )
    elif strategy == "dp-bounded":
        if group_limit is None:
            raise ValueError("dp-bounded requires group_limit")
        grouping = dp_group_bounded(
            pipeline, machine, group_limit,
            cost_model=cost_model, max_states=max_states,
            time_budget_s=time_budget_s, prune=prune,
        )
    elif strategy == "dp-incremental":
        grouping = inc_grouping(
            pipeline, machine, initial_limit=initial_limit, step=step,
            cost_model=cost_model, max_states=max_states,
            time_budget_s=time_budget_s, prune=prune,
        )
    elif strategy == "greedy":
        grouping = polymage_greedy(
            pipeline, machine, tile_size=tile_size,
            overlap_tolerance=overlap_tolerance,
        )
    elif strategy == "polymage-auto":
        return polymage_autotune(pipeline, machine, nthreads=nthreads).best
    elif strategy == "halide-auto":
        return halide_auto_schedule(pipeline, machine)
    elif strategy == "no-fusion":
        return singleton_grouping(pipeline)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    if cache is not None:
        cache.store(grouping, key, backend=backend_name_for(machine))
    return grouping
