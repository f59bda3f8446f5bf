"""Persistent schedule cache (``--schedule-cache DIR``).

The ROADMAP's service scenario schedules the same pipelines over and over
— across processes, so the in-memory memoisation of :class:`CostModel`
and :class:`PipelineAnalysis` does not help.  This module stores finished
groupings on disk, keyed by everything the scheduling *decision* depends
on:

* the pipeline structure (name, stage count, stage names in topological
  order — the same facts :func:`repro.fusion.serialize.pipeline_digest`
  certifies),
* the full machine identity — machine name, core count,
  :func:`repro.model.machine.machine_digest` over the description's
  type name and every field (cache sizes / shared-memory and register
  budgets, ``INNERMOSTTILESIZE``), and the four cost weights of
  Table 1 — so a CPU schedule is never served to a GPU request or vice
  versa,
* the strategy and its parameters (group limit, incremental ramp, greedy
  knobs),
* the concrete **parameter bindings and domain extents**
  (:func:`extents_digest`) — ``COMPUTETILESIZES`` and the overlap terms
  of the cost model depend on extents, so a schedule computed for a
  ``--scale 0.1`` build must never be silently reused at ``--scale 1.0``
  even though both builds share stage names and counts.

A cache hit deserialises the stored grouping through
:func:`repro.fusion.serialize.grouping_from_dict`, which re-validates the
pipeline structure digest — a stale entry (stage renames, different build
parameters) fails with ``SCHEDULE_STALE`` exactly like a stale
``--schedule`` file would, and is evicted and re-scheduled instead of
being silently applied.  A hit costs one JSON parse: zero cost-model
evaluations, zero DP states.

Cache files are written atomically (temp file + ``os.replace``; the temp
name carries the pid *and* a per-call unique suffix, so concurrent
threads of one process storing the same key never interleave writes
through a shared temp file) so a killed process never leaves a truncated
entry behind.  Temp files a killed writer *did* leave behind (it died
between ``open`` and ``os.replace``) are age-swept the next time the
cache directory is opened.

With ``repro.obs`` metrics collection on, every cache event is exported
as ``repro_schedule_cache_events_total`` with
``event=hit|miss|eviction|store|tmp_sweep`` alongside the per-instance
``hits``/``misses``/``evictions`` counters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from typing import Iterable, List, Optional

from ..dsl.pipeline import Pipeline
from ..errors import ScheduleFormatError, ScheduleStaleError
from ..model.machine import machine_digest
from ..model.weights import CostWeights
from ..obs import METRICS
from .grouping import Grouping
from .serialize import grouping_from_dict, grouping_to_dict

__all__ = [
    "ScheduleCache",
    "schedule_cache_key",
    "schedule_cache_params",
    "extents_digest",
]

#: process-wide monotonic counter for unique temp-file suffixes
_TMP_COUNTER = itertools.count()


def extents_digest(pipeline: Pipeline) -> str:
    """Digest of the concrete geometry a scheduling decision depends on:
    parameter bindings, per-stage domain bounds, and input image shapes.

    Two builds of the same pipeline at different scales share stage names
    and counts but differ here — and ``COMPUTETILESIZES`` (Algorithm 2)
    and the cost model's overlap/liveout terms are functions of extents,
    so their schedules must not be interchangeable.
    """
    h = hashlib.sha256()
    for name in sorted(pipeline.env):
        h.update(f"param:{name}={pipeline.env[name]}\0".encode())
    for stage in pipeline.stages:
        h.update(f"dom:{stage.name}:{pipeline.domain(stage)!r}\0".encode())
    for img in pipeline.images:
        h.update(
            f"img:{img.name}:{pipeline.image_shape(img)!r}\0".encode()
        )
    return h.hexdigest()[:16]


def schedule_cache_key(
    pipeline: Pipeline,
    machine,
    strategy: str = "dp",
    ncores: Optional[int] = None,
    weights: Optional[CostWeights] = None,
    params: Iterable[str] = (),
) -> str:
    """Digest of everything a scheduling decision depends on.

    ``machine`` may be a CPU :class:`~repro.model.machine.Machine` or a
    :class:`~repro.model.machine.GpuMachine`: the key folds in
    :func:`~repro.model.machine.machine_digest` — the description's type
    name and *every* field — so a schedule computed under one machine
    type's tile hierarchy (or one capacity/weight configuration) can
    never be served for another.

    ``params`` carries strategy-specific knobs as ``"name=value"``
    strings; budgets (``max_states``, wall clocks) are deliberately *not*
    part of the key — a cached entry only exists if some run completed
    within its budgets, and the chosen grouping does not depend on them.
    """
    w = weights or machine.weights
    h = hashlib.sha256()
    h.update(f"pipeline:{pipeline.name}\0".encode())
    h.update(f"stages:{pipeline.num_stages}\0".encode())
    for stage in pipeline.stages:
        h.update(stage.name.encode())
        h.update(b"\0")
    h.update(f"extents:{extents_digest(pipeline)}\0".encode())
    h.update(f"machine:{machine.name}\0".encode())
    h.update(f"mdigest:{machine_digest(machine)}\0".encode())
    h.update(f"cores:{ncores or machine.num_cores}\0".encode())
    h.update(f"weights:{w.w1!r}:{w.w2!r}:{w.w3!r}:{w.w4!r}\0".encode())
    h.update(f"strategy:{strategy}\0".encode())
    for p in params:
        h.update(f"{p}\0".encode())
    return h.hexdigest()[:20]


#: per cacheable strategy, the knobs its grouping depends on, in the
#: order they enter the key
_STRATEGY_KNOBS = {
    "dp": ("group_limit",),
    "dp-bounded": ("group_limit",),
    "dp-incremental": ("initial_limit", "step"),
    "greedy": ("tile_size", "overlap_tolerance"),
}


def schedule_cache_params(strategy: str, **knobs) -> List[str]:
    """The ``params`` of :func:`schedule_cache_key` for ``strategy``,
    picked out of ``knobs`` (knobs of other strategies are ignored) — the
    one spelling every path that stores or loads a schedule keys on."""
    return [f"{name}={knobs[name]!r}" for name in _STRATEGY_KNOBS[strategy]]


#: temp files from :meth:`ScheduleCache.store` older than this are
#: presumed orphaned by a crashed/killed writer and swept on open
STALE_TMP_S = 3600.0


class ScheduleCache:
    """A directory of serialized schedules keyed by
    :func:`schedule_cache_key`."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0  # stale or unreadable entries removed
        self.swept_tmp = self._sweep_tmp()

    def _sweep_tmp(self, stale_s: float = STALE_TMP_S) -> int:
        """Remove ``*.tmp.*`` files a killed writer never renamed.

        A writer that dies between ``open`` and ``os.replace`` leaves
        its temp file behind forever — nothing else ever references the
        unique name.  Age-gating the sweep (mtime older than
        ``stale_s``) keeps it safe against writers in other processes
        that are mid-store right now; returns the number removed.
        """
        removed = 0
        now = time.time()
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if ".tmp." not in name:
                continue
            path = os.path.join(self.directory, name)
            try:
                if now - os.path.getmtime(path) > stale_s:
                    os.remove(path)
                    removed += 1
            except OSError:
                continue
        if removed:
            self._event("tmp_sweep")
        return removed

    def _path(self, pipeline: Pipeline, key: str) -> str:
        return os.path.join(self.directory, f"{pipeline.name}-{key}.json")

    def load(self, pipeline: Pipeline, key: str) -> Optional[Grouping]:
        """The cached grouping, or ``None`` on a miss.  Stale or corrupt
        entries — including entries whose recorded extent digest no
        longer matches the pipeline's concrete parameter bindings and
        domain extents — are evicted and reported as misses."""
        path = self._path(pipeline, key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            self._event("miss")
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(path)
            return None
        if data.get("extents") != extents_digest(pipeline):
            # Entry was written for a different concrete geometry (or by
            # a pre-extent-digest build): the stored tile sizes are not
            # trustworthy for this pipeline instance.
            self._evict(path)
            return None
        try:
            grouping = grouping_from_dict(pipeline, data)
        except (ScheduleStaleError, ScheduleFormatError, KeyError, ValueError):
            self._evict(path)
            return None
        self.hits += 1
        self._event("hit")
        return grouping

    def store(self, grouping: Grouping, key: str) -> str:
        """Atomically write ``grouping``; returns the entry path.

        The temp-file name includes a process-wide unique suffix on top
        of the pid: two threads of one process storing the same key get
        distinct temp files, so neither can truncate or interleave the
        other's half-written entry before its ``os.replace``.
        """
        path = self._path(grouping.pipeline, key)
        tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}"
        data = grouping_to_dict(grouping)
        data["extents"] = extents_digest(grouping.pipeline)
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self._event("store")
        return path

    def _evict(self, path: str) -> None:
        self.misses += 1
        self.evictions += 1
        self._event("miss")
        self._event("eviction")
        try:
            os.remove(path)
        except OSError:
            pass

    @staticmethod
    def _event(event: str) -> None:
        if METRICS.enabled:
            METRICS.inc("repro_schedule_cache_events_total", event=event)
