"""Weight calibration — the paper's "empirical trial", reproducible.

Table 1's weights "were set to fixed values for the entire evaluation
after an empirical trial" (Sec. 6.1).  This module makes that trial a
tool: grid-search the four weights, running the DP on a set of pipelines
under each candidate and scoring the resulting schedules with an
:data:`repro.fusion.Oracle` — the timing model by default, or
:func:`repro.planner.executor_oracle` for wall time on this host's
executor.  Many weight vectors yield the same DP grouping, and each
unique grouping is scored once (:func:`repro.fusion.autotune.sweep`).
The score of a candidate is the geometric-mean slowdown of its schedules
relative to the best schedule any candidate found for each pipeline, so
one pipeline cannot dominate the others.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.pipeline import Pipeline
from ..errors import SchedulingError
from ..fusion.autotune import Oracle, model_oracle, sweep
from ..fusion.bounded import inc_grouping
from ..fusion.dp import GroupingBudgetExceeded, dp_group
from ..fusion.grouping import Grouping
from .cost import CostModel
from .machine import Machine
from .weights import CostWeights

__all__ = ["CalibrationResult", "calibrate_weights"]


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration sweep."""

    best: CostWeights
    #: (weights, geometric-mean relative slowdown) per candidate, sorted
    scores: Tuple[Tuple[CostWeights, float], ...]
    #: per (candidate index, pipeline name): seconds per the oracle
    times: Dict[Tuple[int, str], float]


def _schedule(pipe: Pipeline, machine: Machine, weights: CostWeights,
              max_states: int) -> Grouping:
    cm = CostModel(pipe, machine, weights=weights)
    try:
        return dp_group(pipe, machine, cost_model=cm, max_states=max_states)
    except GroupingBudgetExceeded:
        return inc_grouping(pipe, machine, initial_limit=2, step=2,
                            cost_model=cm, max_states=max_states)


def calibrate_weights(
    pipelines: Sequence[Pipeline],
    machine: Machine,
    w1_grid: Sequence[float] = (0.3, 1.0, 3.0),
    w2_grid: Sequence[float] = (0.0, 0.4, 2.0),
    w3_grid: Sequence[float] = (1.0, 3.0, 10.0),
    w4_grid: Sequence[float] = (0.0, 1.5),
    oracle: Optional[Oracle] = None,
    max_states: int = 300_000,
) -> CalibrationResult:
    """Grid-search the cost weights against an execution-time oracle.

    Candidates that fail to schedule a pipeline within the state budget
    are discarded; an exception from ``oracle`` is the caller's.  Returns
    the best weights plus the full score table.
    """
    if not pipelines:
        raise ValueError("need at least one pipeline to calibrate on")
    oracle = oracle or model_oracle(machine)

    candidates = [
        CostWeights(w1=w1, w2=w2, w3=w3, w4=w4)
        for w1, w2, w3, w4 in itertools.product(
            w1_grid, w2_grid, w3_grid, w4_grid
        )
    ]

    # schedule first: only a scheduling failure disqualifies a candidate
    scheduled: Dict[int, List[Grouping]] = {}
    for ci, weights in enumerate(candidates):
        try:
            scheduled[ci] = [_schedule(pipe, machine, weights, max_states)
                             for pipe in pipelines]
        except (SchedulingError, ArithmeticError, ValueError):
            continue

    if not scheduled:
        raise RuntimeError("no weight candidate scheduled every pipeline")

    times: Dict[Tuple[int, str], float] = {}
    log_slowdown = dict.fromkeys(scheduled, 0.0)
    for pi, pipe in enumerate(pipelines):
        seconds, _ = sweep(pipe, [gs[pi] for gs in scheduled.values()],
                           oracle)
        fastest = min(seconds)
        for ci, t in zip(scheduled, seconds):
            times[(ci, pipe.name)] = t
            log_slowdown[ci] += math.log(t / fastest)

    scored = sorted(
        ((candidates[ci], math.exp(total / len(pipelines)))
         for ci, total in log_slowdown.items()),
        key=lambda pair: pair[1],
    )
    return CalibrationResult(
        best=scored[0][0], scores=tuple(scored), times=times
    )
