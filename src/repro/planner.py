"""Shared planning front-door for the CLI and the serve layer.

``repro run`` and a :class:`repro.serve.PipelineHost` must make *exactly*
the same decisions — same benchmark build at a given ``--scale``, same
scheduling strategy (including the camera-pipeline/pyramid special cases
and the degrade-mode resilient chain), same deterministic input
generation from a seed — or the serve layer's "bit-identical to one-shot
runs" contract breaks.  This module is the single implementation both
entry points call.

The functions were extracted from :mod:`repro.cli` (which now delegates
here) so that :mod:`repro.serve` can depend on them without importing
the argument parser.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Optional, Tuple

import numpy as np

from .dsl.pipeline import Pipeline
from .fusion import (
    Grouping,
    Oracle,
    ScheduleCache,
    schedule_cache_key,
    schedule_cache_params,
    schedule_pipeline,
)
from .model.machine import Machine
from .pipelines import get_benchmark
from .resilience import ScheduleBudget, resilient_schedule

__all__ = [
    "build_benchmark",
    "plan_schedule",
    "make_inputs",
    "executor_oracle",
    "array_digest",
    "output_digests",
]


def build_benchmark(abbrev: str, scale: float):
    """Build a registered benchmark at an image-size fraction of its
    paper configuration; returns ``(benchmark, pipeline)``.

    ``scale >= 1`` builds the paper size.  Smaller scales start from the
    benchmark's ``small_kwargs`` and override width/height with the
    scaled paper dimensions (floored to a multiple of 16, minimum 64) —
    the same rounding the CLI has always used, so schedules and outputs
    are reproducible from the ``(abbrev, scale)`` pair alone.
    """
    bench = get_benchmark(abbrev)
    if scale >= 1.0:
        return bench, bench.build()
    kwargs = dict(bench.small_kwargs)
    w, h = bench.image_size[0], bench.image_size[1]
    kwargs["width"] = max(64, int(w * scale) // 16 * 16)
    kwargs["height"] = max(64, int(h * scale) // 16 * 16)
    return bench, bench.build(**kwargs)


def plan_schedule(pipe, bench, machine: Machine, strategy: str,
                  max_states: int, budget_s: Optional[float] = None,
                  strict: bool = True, prune: bool = True,
                  schedule_cache: Optional[str] = None):
    """Schedule ``pipe`` the way the CLI does; returns
    ``(grouping, report_or_None)``.

    In degrade mode (``strict=False``) the DP strategies run through
    :func:`repro.resilience.resilient_schedule`, so a budget blowout or a
    scheduling failure degrades down the chain instead of aborting; the
    returned :class:`ScheduleReport` says which tier actually ran.

    The lossless DP pruning is enabled by default (callers pass
    ``prune=False`` to opt out); ``schedule_cache`` is a directory for
    the persistent schedule cache.  In degrade mode only a result from
    the *requested* tier is cached (never a degraded fallback).
    """
    if strategy == "h-manual":
        return bench.h_manual(pipe), None
    kwargs = {}
    if strategy == "dp-incremental" or (
        strategy == "dp" and bench.abbrev == "PB"
    ):
        strategy = "dp-incremental"
        kwargs = dict(initial_limit=2, step=2)
    if not strict and strategy in ("dp", "dp-incremental"):
        cache = key = None
        if schedule_cache is not None:
            cache = ScheduleCache(schedule_cache)
            key = schedule_cache_key(
                pipe, machine, strategy=strategy,
                params=schedule_cache_params(
                    strategy, group_limit=None, **kwargs
                ),
            )
            hit = cache.load(pipe, key)
            if hit is not None:
                return hit, None
        # dp-incremental requests skip the unbounded tier by zeroing its
        # state budget — its attempt fails instantly as SCHED_BUDGET.
        budget = ScheduleBudget(
            wall_clock_s=budget_s,
            dp_max_states=0 if strategy == "dp-incremental" else max_states,
            inc_max_states=max_states,
            initial_limit=kwargs.get("initial_limit", 2),
            step=kwargs.get("step", 2),
            prune=prune,
        )
        report = resilient_schedule(pipe, machine, budget)
        if cache is not None and report.tier == strategy:
            cache.store(report.grouping, key)
        return report.grouping, report
    return schedule_pipeline(
        pipe, machine, strategy=strategy, max_states=max_states,
        time_budget_s=budget_s, prune=prune, schedule_cache=schedule_cache,
        **kwargs
    ), None


def make_inputs(pipe: Pipeline, seed: int) -> Dict[str, np.ndarray]:
    """Deterministic input arrays for every image of ``pipe`` from a
    seed — byte-for-byte what ``repro run --seed N`` feeds the executor,
    which is how the serve layer's seed-addressed requests stay
    bit-identical to one-shot CLI runs."""
    rng = np.random.default_rng(seed)
    inputs: Dict[str, np.ndarray] = {}
    for img in pipe.images:
        shape = pipe.image_shape(img)
        if img.scalar_type.np_dtype.kind in "ui":
            inputs[img.name] = rng.integers(0, 1024, shape).astype(
                img.scalar_type.np_dtype
            )
        else:
            inputs[img.name] = rng.random(shape, dtype=np.float32)
    return inputs


def executor_oracle(nthreads: int = 1, repeats: int = 3) -> Oracle:
    """The measured :data:`repro.fusion.Oracle`: wall seconds of
    :func:`repro.runtime.execute_grouping` — the executor that serves, at
    the process's resolved ``KernelTier`` — on ``make_inputs(pipe, 0)``,
    built once per pipeline.  One untimed run first (artifact build,
    first-use self-check and any demotion, as on a first request), then
    the minimum of ``repeats`` timed ones.
    """
    from . import runtime

    inputs: Dict[Pipeline, Dict[str, np.ndarray]] = {}

    def oracle(pipe: Pipeline, grouping: Grouping) -> float:
        if pipe not in inputs:
            inputs[pipe] = make_inputs(pipe, 0)

        def run() -> float:
            start = time.perf_counter()
            runtime.execute_grouping(pipe, grouping, inputs[pipe],
                                     nthreads=nthreads)
            return time.perf_counter() - start

        run()
        return min(run() for _ in range(repeats))

    return oracle


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes (C-order), prefixed with shape and
    dtype so two arrays agree iff they are bit-identical.  The contiguous
    buffer is hashed in place, not copied out first."""
    data = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(data.shape).encode())
    h.update(str(data.dtype).encode())
    h.update(data)
    return h.hexdigest()


def output_digests(outputs: Dict[str, np.ndarray]) -> Dict[str, str]:
    """Per-output :func:`array_digest`, keys sorted."""
    return {name: array_digest(outputs[name]) for name in sorted(outputs)}
