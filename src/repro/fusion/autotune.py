"""PolyMage-A: the greedy heuristic driven by auto-tuning (Sec. 6.1).

PolyMage's auto-tuner sweeps a small grid of uniform tile sizes and
overlap-tolerance thresholds, generates code for each configuration, runs
it, and keeps the empirically fastest.  The paper used tile sizes
{8, 16, 32, 64, 128, 256} (applied to two dimensions) and tolerances
{0.2, 0.4, 0.5}.

What "runs it" means is an :data:`Oracle`.  The default is the analytic
timing model every other strategy is priced with (:func:`model_oracle`),
keeping the comparison apples-to-apples;
:func:`repro.planner.executor_oracle` is the paper's genuine protocol —
it times the executor that serves (the paper notes this tuning takes
minutes to ~27 minutes of real machine time, versus the fully
model-driven PolyMageDP).
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dsl.pipeline import Pipeline
from ..model.machine import Machine
from ..perfmodel.timing import estimate_runtime
from .greedy import polymage_greedy
from .grouping import Grouping, GroupingStats

__all__ = ["AutotuneTrial", "AutotuneResult", "Oracle", "model_oracle",
           "polymage_autotune", "sweep"]

#: The paper's search space (Sec. 6.1).
DEFAULT_TILE_SIZES: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)
DEFAULT_TOLERANCES: Tuple[float, ...] = (0.2, 0.4, 0.5)

#: What a tuner scores a candidate with: run time in seconds, estimated
#: or measured.
Oracle = Callable[[Pipeline, Grouping], float]


def model_oracle(
    machine: Machine,
    nthreads: Optional[int] = None,
    codegen: str = "polymage",
) -> Oracle:
    """The analytic oracle: :func:`estimate_runtime` on ``machine``."""
    nthreads = nthreads or machine.num_cores
    return lambda pipeline, grouping: estimate_runtime(
        pipeline, grouping, machine, nthreads=nthreads, codegen=codegen
    )


def sweep(
    pipeline: Pipeline, candidates: Sequence[Grouping], oracle: Oracle
) -> Tuple[List[float], int]:
    """The one score-each-candidate loop (``calibrate_weights`` shares
    it): ``oracle`` is called once per unique ``(group_names,
    tile_sizes)`` — distinct configurations often yield the same
    grouping, and a measured oracle costs real time per call.  Returns
    ``(seconds, unique)``, ``seconds`` aligned with ``candidates``."""
    measured: Dict[tuple, float] = {}
    seconds: List[float] = []
    for grouping in candidates:
        key = (tuple(map(tuple, grouping.group_names())),
               grouping.tile_sizes)
        if key not in measured:
            measured[key] = oracle(pipeline, grouping)
        seconds.append(measured[key])
    return seconds, len(measured)


@dataclass(frozen=True)
class AutotuneTrial:
    """One evaluated (tile size, tolerance) configuration."""

    tile_size: int
    overlap_tolerance: float
    grouping: Grouping
    seconds: float


@dataclass(frozen=True)
class AutotuneResult:
    """Full auto-tuning outcome: the best grouping plus every trial."""

    best: Grouping
    trials: Tuple[AutotuneTrial, ...]

    @property
    def best_trial(self) -> AutotuneTrial:
        return min(self.trials, key=lambda t: t.seconds)


def polymage_autotune(
    pipeline: Pipeline,
    machine: Machine,
    nthreads: Optional[int] = None,
    tile_sizes: Sequence[int] = DEFAULT_TILE_SIZES,
    tolerances: Sequence[float] = DEFAULT_TOLERANCES,
    oracle: Optional[Oracle] = None,
) -> AutotuneResult:
    """Sweep the PolyMage auto-tuning space and return the fastest
    configuration per ``oracle`` (default: the timing model on
    ``machine`` at ``nthreads``)."""
    if not tile_sizes or not tolerances:
        raise ValueError("need at least one tile size and one tolerance")
    oracle = oracle or model_oracle(machine, nthreads)

    start = time.perf_counter()
    configs = [(ts, tol) for tol in tolerances for ts in tile_sizes]
    groupings = [
        polymage_greedy(pipeline, machine, tile_size=ts,
                        overlap_tolerance=tol)
        for ts, tol in configs
    ]
    seconds, unique = sweep(pipeline, groupings, oracle)
    elapsed = time.perf_counter() - start

    trials = tuple(
        AutotuneTrial(tile_size=ts, overlap_tolerance=tol, grouping=g,
                      seconds=s)
        for (ts, tol), g, s in zip(configs, groupings, seconds)
    )
    best = min(trials, key=lambda t: t.seconds)
    stats = GroupingStats(
        strategy="polymage-auto",
        enumerated=len(trials),
        cost_evaluations=unique,
        time_seconds=elapsed,
        extra={
            "best_tile_size": float(best.tile_size),
            "best_tolerance": best.overlap_tolerance,
        },
    )
    best_grouping = Grouping(
        pipeline=pipeline,
        groups=best.grouping.groups,
        tile_sizes=best.grouping.tile_sizes,
        cost=best.seconds,
        stats=stats,
    )
    return AutotuneResult(best=best_grouping, trials=trials)
