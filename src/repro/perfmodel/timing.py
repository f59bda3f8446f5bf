"""Analytic execution-time estimator — the testbed substitute.

The paper measured wall-clock times on an Intel Xeon (Haswell) and an AMD
Opteron.  Without that hardware, we price a ``(grouping, tile sizes)``
schedule with a roofline-style model whose terms are exactly the effects
the paper's evaluation discusses:

* **Compute** — per-stage iteration points (including redundant overlap
  computation) times the stage's per-point operation count, at the
  throughput of the machine's cores.  The achieved vector speedup depends
  on the *code generator*: PolyMage relies on compiler auto-vectorization,
  which fails for integer-heavy and data-dependent stages on the Opteron's
  g++ (Sec. 6.2), while Halide emits intrinsics and is unaffected.
* **Memory** — live-in/live-out traffic per tile times the tile count, at
  L3 bandwidth when the data could still be cache-resident and DRAM
  bandwidth otherwise, plus spill traffic when a tile's resident footprint
  exceeds the L2 slice available to its core.
* **Parallelism** — tiles are distributed over threads in waves; a
  non-multiple tile count leaves cores idle in the last wave (the
  "cleanup tiles" the cost model's w2 term minimises), and the run time
  takes the roofline max of compute and memory per group.

Absolute milliseconds are *not* calibrated to the paper's testbeds; the
model is built so that the relative behaviour — who wins, by what rough
factor, where the anomalies are — tracks the published tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from ..dsl.pipeline import Pipeline
from ..model.machine import Machine
from .groupmetrics import GroupMetrics, group_metrics, stage_traits

if TYPE_CHECKING:  # pragma: no cover
    from ..fusion.grouping import Grouping

__all__ = ["estimate_runtime", "TimingBreakdown", "estimate_group_time"]

#: Fixed scheduling overhead per tile dispatch (seconds).
TILE_OVERHEAD_S = 2e-7
#: Fork/join overhead per fused group (seconds).
GROUP_OVERHEAD_S = 2e-5


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-group decomposition of the estimated run time."""

    group_names: List[str]
    compute_s: List[float]
    memory_s: List[float]
    imbalance: List[float]
    total_s: float


def _effective_bandwidth(
    machine: Machine, nthreads: int, working_set: float
) -> float:
    """Bandwidth feeding a group's live-in/live-out traffic: L3 bandwidth
    when the producer/consumer data plausibly stays in the last-level
    cache, DRAM otherwise; in both cases capped by what the active threads
    can draw."""
    if working_set <= 0.8 * machine.l3_cache:
        base = machine.l3_bandwidth
    else:
        base = machine.dram_bandwidth
    return min(base, nthreads * machine.core_bandwidth * 3.0)


def estimate_group_time(
    pipeline: Pipeline,
    metrics: GroupMetrics,
    machine: Machine,
    nthreads: int,
    codegen: str,
) -> Dict[str, float]:
    """Estimated execution time of one fused group (seconds), with its
    compute/memory/imbalance components."""
    # --- compute: per-stage, with codegen-dependent vectorization.  A
    # short innermost tile extent degrades prefetching and vectorization
    # (the reason Algorithm 2 pins INNERMOSTTILESIZE, Sec. 4.2).
    inner_factor = min(1.0, max(0.4, metrics.inner_extent / 64.0))
    compute_core_seconds = 0.0
    for stage, points in metrics.stage_points.items():
        tr = stage_traits(pipeline, stage)
        if codegen == "halide":
            veff = machine.halide_vec_efficiency(
                integer_heavy=tr.integer_heavy,
                data_dependent=tr.data_dependent,
            )
        elif codegen == "polymage":
            veff = machine.polymage_vec_efficiency(
                integer_heavy=tr.integer_heavy,
                data_dependent=tr.data_dependent,
            )
        else:
            raise ValueError(f"unknown codegen {codegen!r}")
        throughput = machine.ops_per_second(max(1.0, veff * inner_factor))
        compute_core_seconds += points * tr.ops_per_point / throughput

    # --- memory: live-in + live-out traffic, plus scratch traffic priced
    # by where the tile's working set resides (L1-sized tiles keep their
    # producer/consumer reuse in L1 — the effect Table 5 of the paper
    # measures).
    # Live-in traffic is capped at a few sweeps of the distinct external
    # data: data-dependent accesses (LUTs, grid slicing) read scattered
    # but bounded producers, and the footprint model's conservative
    # full-extent-per-tile estimate would otherwise charge each tile the
    # whole producer.
    livein_total = min(
        metrics.livein_bytes_total, 4.0 * metrics.livein_unique_bytes
    )
    traffic = livein_total + metrics.liveout_bytes_total
    working_set = traffic  # data streamed through the cache hierarchy
    bw = _effective_bandwidth(machine, nthreads, working_set)
    memory_s = traffic / bw

    resident = metrics.resident_bytes
    scratch_traffic = 2.0 * metrics.tile_footprint_bytes * metrics.n_tiles
    if resident <= machine.l1_cache:
        scratch_bw = nthreads * machine.l1_bandwidth_core
    elif resident <= machine.l2_cache:
        scratch_bw = nthreads * machine.l2_bandwidth_core
    else:
        # The producer-to-consumer reuse distance spills L2: the spilled
        # portion bounces to L3 on every pass; the rest stays at L2 speed.
        spill = resident - machine.l2_cache
        memory_s += (2.0 * spill * metrics.n_tiles) / min(
            machine.l3_bandwidth, nthreads * machine.core_bandwidth * 3.0
        )
        scratch_bw = nthreads * machine.l2_bandwidth_core
    memory_s += scratch_traffic / scratch_bw

    # --- parallel distribution of tiles over threads.
    n_tiles = max(1, metrics.n_tiles)
    waves = -(-n_tiles // nthreads)
    imbalance = (waves * nthreads) / n_tiles  # >= 1.0
    compute_s = compute_core_seconds / nthreads

    group_time = max(compute_s, memory_s) * imbalance
    group_time += n_tiles * TILE_OVERHEAD_S / nthreads + GROUP_OVERHEAD_S
    return {
        "compute_s": compute_s,
        "memory_s": memory_s,
        "imbalance": imbalance,
        "total_s": group_time,
    }


def estimate_runtime(
    pipeline: Pipeline,
    grouping: "Grouping",
    machine: Machine,
    nthreads: Optional[int] = None,
    codegen: str = "polymage",
    breakdown: bool = False,
):
    """Estimated wall-clock run time (seconds) of a grouping.

    ``codegen`` is ``"polymage"`` for PolyMage-generated C++ (compiler
    auto-vectorization) or ``"halide"`` for Halide-generated code
    (intrinsics).  With ``breakdown=True`` a :class:`TimingBreakdown` is
    returned instead of a float.
    """
    if nthreads is None:
        nthreads = machine.num_cores
    if nthreads < 1:
        raise ValueError("nthreads must be positive")

    names: List[str] = []
    comp: List[float] = []
    mem: List[float] = []
    imb: List[float] = []
    total = 0.0
    for members, tiles in zip(grouping.groups, grouping.tile_sizes):
        metrics = group_metrics(pipeline, members, tiles)
        parts = estimate_group_time(pipeline, metrics, machine, nthreads, codegen)
        names.append("+".join(sorted(s.name for s in members)))
        comp.append(parts["compute_s"])
        mem.append(parts["memory_s"])
        imb.append(parts["imbalance"])
        total += parts["total_s"]

    if breakdown:
        return TimingBreakdown(
            group_names=names,
            compute_s=comp,
            memory_s=mem,
            imbalance=imb,
            total_s=total,
        )
    return total
