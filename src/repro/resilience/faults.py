"""Deterministic, seedable fault injection.

The resilience layer claims that every degradation edge — DP budget blown,
cost evaluation erroring, a tile raising mid-pool, a scratch allocation
failing — is actually handled.  This module makes those claims testable:
instrumented sites in the scheduler and runtime call :func:`maybe_fail`,
which is free when no injector is active and raises
:class:`~repro.errors.InjectedFault` according to a seeded plan when one
is.

Instrumented sites
------------------
``"cost"``
    :meth:`repro.model.cost.CostModel.cost` — each *uncached* group
    evaluation (what the DP and incremental tiers run on).
``"tile"``
    each unit attempt of the tiled-group walk of
    :func:`repro.runtime.executor.execute_grouping`, keyed by group, the
    unit's first tile, and retry attempt, so bounded retries observe
    fresh draws.  On a native kernel the unit is the chunk — one C call
    over a thread's whole share of the group's steps — so there is one
    check per chunk attempt and a retry re-runs the whole chunk; on any
    other kernel it is the step, one kernel call over one or more
    adjacent tiles.
``"alloc"``
    :meth:`repro.runtime.buffers.Buffer.for_region` — scratch and output
    buffer allocation.
``"native_build"``
    :mod:`repro.runtime.nativestore` — each compiler call building a
    grouping's native kernels (an artifact-store miss), keyed by the
    artifact's name; a failure there is a compile error:
    ``KERNEL_NATIVE_FAIL`` and the NumPy kernels.

Determinism: a check keyed ``(site, detail)`` fails iff
``hash(seed, site, detail) < rate`` — independent of thread scheduling, so
a tile that fails once fails on every rerun of the same attempt.  Checks
without a ``detail`` key fall back to a per-site counter (deterministic
for serial call sites).  ``max_failures`` bounds the total failures a site
injects, after which its checks pass — how tests exercise
retry-then-succeed paths.

Usage::

    with inject_faults(seed=7, tile=1.0) as injector:
        ...                      # every tile attempt raises InjectedFault
    injector.counts["tile"]      # FaultStats(checks=…, failures=…)

The guard's reference fallback runs under :func:`suspended` so a degraded
re-execution is never itself sabotaged — the harness proves fallbacks
*fire*; the fallback path runs clean.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Union

from ..errors import InjectedFault

__all__ = [
    "FaultSpec",
    "FaultStats",
    "FaultInjector",
    "inject_faults",
    "maybe_fail",
    "suspended",
    "active_injector",
]


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of one injection site."""

    rate: float = 0.0
    max_failures: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


@dataclass
class FaultStats:
    """Per-site bookkeeping."""

    checks: int = 0
    failures: int = 0


def _unit_hash(seed: int, site: str, key: str) -> float:
    """A deterministic value in [0, 1) from (seed, site, key)."""
    data = f"{seed}:{site}:{key}".encode()
    return zlib.crc32(data) / 2**32


class FaultInjector:
    """A seeded plan of which instrumented sites fail, at which rates."""

    def __init__(
        self,
        seed: int = 0,
        sites: Optional[Mapping[str, Union[float, FaultSpec]]] = None,
    ):
        self.seed = seed
        self.sites: Dict[str, FaultSpec] = {}
        for name, spec in (sites or {}).items():
            if not isinstance(spec, FaultSpec):
                spec = FaultSpec(rate=float(spec))
            self.sites[name] = spec
        self.counts: Dict[str, FaultStats] = {
            name: FaultStats() for name in self.sites
        }
        self._lock = threading.Lock()

    def check(self, site: str, detail: str = "") -> None:
        """Raise :class:`InjectedFault` if the plan fails this check."""
        spec = self.sites.get(site)
        if spec is None or spec.rate == 0.0:
            return
        with self._lock:
            stats = self.counts[site]
            stats.checks += 1
            key = detail if detail else f"#{stats.checks}"
            exhausted = (
                spec.max_failures is not None
                and stats.failures >= spec.max_failures
            )
            fail = not exhausted and (
                spec.rate >= 1.0
                or _unit_hash(self.seed, site, key) < spec.rate
            )
            if fail:
                stats.failures += 1
        if fail:
            raise InjectedFault(
                f"injected fault at site {site!r}",
                site=site,
                detail=detail,
                seed=self.seed,
            )

    def total_failures(self) -> int:
        return sum(s.failures for s in self.counts.values())


_ACTIVE: Optional[FaultInjector] = None
_SUSPEND = threading.local()


def active_injector() -> Optional[FaultInjector]:
    """The injector currently in force, if any."""
    return _ACTIVE


def maybe_fail(site: str, detail: str = "") -> None:
    """Hook called from instrumented sites; a no-op unless an injector is
    active and not suspended on this thread."""
    injector = _ACTIVE
    if injector is None or getattr(_SUSPEND, "depth", 0) > 0:
        return
    injector.check(site, detail)


@contextmanager
def inject_faults(
    injector: Optional[FaultInjector] = None,
    *,
    seed: int = 0,
    **site_rates: Union[float, FaultSpec],
) -> Iterator[FaultInjector]:
    """Activate fault injection for the dynamic extent of the block.

    Either pass a prebuilt :class:`FaultInjector` or site rates as keyword
    arguments (``inject_faults(tile=1.0, seed=3)``).  Nesting replaces the
    outer injector for the inner block.
    """
    global _ACTIVE
    if injector is None:
        injector = FaultInjector(seed=seed, sites=site_rates)
    elif site_rates:
        raise ValueError("pass either an injector or site rates, not both")
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Disable injection on the current thread (used by the guard while it
    re-executes a failed group via the reference path)."""
    _SUSPEND.depth = getattr(_SUSPEND, "depth", 0) + 1
    try:
        yield
    finally:
        _SUSPEND.depth -= 1
