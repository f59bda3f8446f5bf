"""Machine descriptions for the cost and performance models.

Two presets reproduce the paper's evaluation systems (Sec. 6.1):

* :data:`XEON_HASWELL` — dual-socket 8-core Intel Xeon E5-2630 v3,
  2.40 GHz, 32 KB L1 / 256 KB L2 per core, 20 MB shared L3, DDR4-2400,
  AVX2; code compiled with icpc (auto-vectorization generally succeeds).
* :data:`AMD_OPTERON` — 16-core AMD Opteron 6386 SE, 1.4 GHz, 16 KB L1,
  2 MB L2 shared per 2 cores (1 MB effective per core), 12 MB L3 per
  8 cores, DDR3-800; code compiled with g++, whose auto-vectorization
  failed for the integer-heavy/data-dependent benchmarks (Sec. 6.2) —
  captured by :meth:`Machine.polymage_vec_efficiency`.

The per-machine ``INNERMOSTTILESIZE`` of Algorithm 2 (256 on the Xeon, 128
on the Opteron) and the cost weights of Table 1 live here too, as do the
Halide auto-scheduler parameters the paper configured
(``VECTOR_WIDTH = 16``, ``PARALLELISM_THRESHOLD = 16``, ``CACHE_SIZE``,
``LOAD_COST = 40``).

:data:`MACHINES` is the one catalogue of presets (``--machine``); a
preset's type alone picks the cost function that prices it
(:func:`repro.model.cost.group_cost`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Union

from .weights import CostWeights

__all__ = [
    "Machine",
    "GpuMachine",
    "HalideParams",
    "XEON_HASWELL",
    "AMD_OPTERON",
    "GPU_V100",
    "GPU_A100",
    "MACHINES",
    "get_machine",
    "machine_digest",
    "machines_json",
]


@dataclass(frozen=True)
class HalideParams:
    """Parameters of Halide's auto-scheduler as set in Sec. 6.1."""

    vector_width: int
    parallelism_threshold: int
    cache_size: int
    load_cost: float


@dataclass(frozen=True)
class Machine:
    """A shared-memory multicore machine model.

    Cache sizes are per core for L1/L2 (matching how the paper's cost
    function consumes them) and total for L3.  Bandwidths are rough
    steady-state figures; the timing model only relies on their relative
    magnitudes (compute vs. memory balance), not their absolute accuracy.
    """

    name: str
    num_cores: int
    frequency_ghz: float
    l1_cache: int
    l2_cache: int
    l3_cache: int
    cache_line: int
    l1_assoc: int
    l2_assoc: int
    vector_lanes_f32: int
    #: scalar arithmetic ops retired per cycle per core
    scalar_ops_per_cycle: float
    #: efficiency of vectorised loops relative to the ideal lane speedup
    vector_efficiency: float
    #: aggregate DRAM bandwidth, bytes/s
    dram_bandwidth: float
    #: bandwidth one core can draw, bytes/s
    core_bandwidth: float
    #: L3 bandwidth (aggregate), bytes/s
    l3_bandwidth: float
    #: per-core L1 bandwidth, bytes/s (scratch traffic of L1-resident tiles)
    l1_bandwidth_core: float
    #: per-core L2 bandwidth, bytes/s (scratch traffic of L2-resident tiles)
    l2_bandwidth_core: float
    #: Algorithm 2's INNERMOSTTILESIZE for this machine
    innermost_tile_size: int
    weights: CostWeights
    halide: HalideParams
    #: whether the backend compiler auto-vectorizes integer-heavy or
    #: data-dependent loops (icpc on Haswell: yes; g++ 4.8 on Opteron: no)
    autovec_integer: bool
    #: whether the backend compiler auto-vectorizes at all for generated
    #: stencil code (g++ failed entirely for Pyramid Blend, Sec. 6.2)
    autovec_float: bool

    # -- vectorization behaviour ------------------------------------------
    def vector_speedup(self) -> float:
        """Ideal-case speedup of a vectorised f32 loop over scalar."""
        return max(1.0, self.vector_lanes_f32 * self.vector_efficiency)

    def polymage_vec_efficiency(self, *, integer_heavy: bool,
                                data_dependent: bool) -> float:
        """Vector speedup achieved by *compiler auto-vectorization* of
        PolyMage-generated C++ for a stage with the given traits."""
        if data_dependent:
            return 1.0  # gathers/LUTs defeat auto-vectorization everywhere
        if integer_heavy and not self.autovec_integer:
            return 1.0
        if not self.autovec_float:
            return 1.0
        return self.vector_speedup()

    def halide_vec_efficiency(self, *, integer_heavy: bool,
                              data_dependent: bool) -> float:
        """Vector speedup of Halide-generated code (explicit intrinsics —
        not at the mercy of auto-vectorization, Sec. 6.2)."""
        if data_dependent:
            return 1.5  # partial vectorization around the gather
        return self.vector_speedup()

    def ops_per_second(self, vec_speedup: float) -> float:
        """Arithmetic throughput of one core given a vector speedup."""
        return self.frequency_ghz * 1e9 * self.scalar_ops_per_cycle * vec_speedup


@dataclass(frozen=True)
class GpuMachine:
    """A CUDA-style GPU machine model for the two-level tiling search.

    The follow-up paper ("Model-Based Warp Overlapped Tiling") maps the
    PPoPP cost model onto the GPU memory hierarchy: *block* tiles staged
    in shared memory and *warp* tiles held in registers, with overlapped
    (halo) tiling at both levels.  This description carries exactly the
    capacities that search needs — it deliberately does not pretend to be
    a :class:`Machine`: the CPU timing model (`perfmodel`) consumes cache
    bandwidths a GPU does not have, so code paths that price CPU
    execution must check ``isinstance(machine, Machine)`` first.

    ``shared_mem_per_sm`` and ``register_file_per_sm`` are per-SM
    capacities; the per-block and per-warp budgets the search uses are
    derived by dividing through the occupancy targets
    (``resident_blocks_per_sm``, ``max_warps_per_sm``), mirroring how
    occupancy divides the physical resources on real hardware.
    """

    name: str
    #: streaming multiprocessors (the block-level parallelism unit)
    num_sms: int
    #: threads per warp (innermost warp-tile sizes align to this)
    warp_width: int
    #: resident warps per SM the search budgets registers for
    max_warps_per_sm: int
    #: resident blocks per SM the search budgets shared memory for
    resident_blocks_per_sm: int
    #: shared-memory capacity per SM, bytes
    shared_mem_per_sm: int
    #: register-file capacity per SM, bytes
    register_file_per_sm: int
    #: global-memory transaction (sector) size, bytes
    cache_line: int
    #: aggregate global-memory bandwidth, bytes/s
    dram_bandwidth: float
    frequency_ghz: float
    #: block-level INNERMOSTTILESIZE (a multiple of ``warp_width`` so a
    #: block row decomposes into whole warp rows)
    innermost_tile_size: int
    weights: CostWeights

    def __post_init__(self):
        if self.innermost_tile_size % self.warp_width:
            raise ValueError(
                f"innermost_tile_size {self.innermost_tile_size} must be a "
                f"multiple of warp_width {self.warp_width}"
            )

    @property
    def num_cores(self) -> int:
        """Concurrency the idle-fraction criterion distributes block
        tiles over: SMs times resident blocks per SM."""
        return self.num_sms * self.resident_blocks_per_sm

    @property
    def shared_mem_per_block(self) -> int:
        """Shared-memory budget of one resident block tile."""
        return self.shared_mem_per_sm // self.resident_blocks_per_sm

    @property
    def registers_per_warp(self) -> int:
        """Register-file budget of one resident warp tile, bytes."""
        return self.register_file_per_sm // self.max_warps_per_sm


KB = 1024
MB = 1024 * KB
GB_S = 1e9

XEON_HASWELL = Machine(
    name="Intel Xeon E5-2630 v3 (Haswell)",
    num_cores=16,
    frequency_ghz=2.4,
    l1_cache=32 * KB,
    l2_cache=256 * KB,
    l3_cache=20 * MB,
    cache_line=64,
    l1_assoc=8,
    l2_assoc=8,
    vector_lanes_f32=8,
    scalar_ops_per_cycle=2.0,
    vector_efficiency=0.5,
    dram_bandwidth=60 * GB_S,
    core_bandwidth=12 * GB_S,
    l3_bandwidth=180 * GB_S,
    l1_bandwidth_core=100 * GB_S,
    l2_bandwidth_core=25 * GB_S,
    innermost_tile_size=256,
    weights=CostWeights(w1=1.0, w2=0.4, w3=3.0, w4=1.5),
    halide=HalideParams(
        vector_width=16,
        parallelism_threshold=16,
        cache_size=256 * KB,
        load_cost=40.0,
    ),
    autovec_integer=True,
    autovec_float=True,
)

AMD_OPTERON = Machine(
    name="AMD Opteron 6386 SE",
    num_cores=16,
    frequency_ghz=1.4,
    l1_cache=16 * KB,
    l2_cache=1 * MB,  # 2 MB shared between two cores
    l3_cache=12 * MB,
    cache_line=64,
    l1_assoc=4,
    l2_assoc=16,
    vector_lanes_f32=8,
    scalar_ops_per_cycle=2.0,
    vector_efficiency=0.35,
    dram_bandwidth=12 * GB_S,
    core_bandwidth=4 * GB_S,
    l3_bandwidth=60 * GB_S,
    l1_bandwidth_core=40 * GB_S,
    l2_bandwidth_core=10 * GB_S,
    innermost_tile_size=128,
    weights=CostWeights(w1=0.3, w2=0.4, w3=3.0, w4=2.0),
    halide=HalideParams(
        vector_width=16,
        parallelism_threshold=16,
        cache_size=1 * MB,
        load_cost=40.0,
    ),
    autovec_integer=False,
    autovec_float=True,
)

# GPU presets for the two-level (block/warp) tile search.  Capacities are
# the published per-SM figures; the cost weights carry over the Xeon's
# Table 1 calibration — the four criteria (locality, parallelism,
# redundant computation, dimension mismatch) are architecture-neutral
# ratios, only the capacities they are evaluated against change.

GPU_V100 = GpuMachine(
    name="NVIDIA Tesla V100 (Volta)",
    num_sms=80,
    warp_width=32,
    max_warps_per_sm=64,
    resident_blocks_per_sm=2,
    shared_mem_per_sm=96 * KB,
    register_file_per_sm=256 * KB,
    cache_line=32,
    dram_bandwidth=900 * GB_S,
    frequency_ghz=1.38,
    innermost_tile_size=128,
    weights=CostWeights(w1=1.0, w2=0.4, w3=3.0, w4=1.5),
)

GPU_A100 = GpuMachine(
    name="NVIDIA A100 (Ampere)",
    num_sms=108,
    warp_width=32,
    max_warps_per_sm=64,
    resident_blocks_per_sm=2,
    shared_mem_per_sm=164 * KB,
    register_file_per_sm=256 * KB,
    cache_line=32,
    dram_bandwidth=1555 * GB_S,
    frequency_ghz=1.41,
    innermost_tile_size=128,
    weights=CostWeights(w1=1.0, w2=0.4, w3=3.0, w4=1.5),
)

#: every machine preset, keyed by the stable name ``--machine`` accepts
MACHINES: Dict[str, Union[Machine, GpuMachine]] = {
    "xeon": XEON_HASWELL,
    "opteron": AMD_OPTERON,
    "gpu-v100": GPU_V100,
    "gpu-a100": GPU_A100,
}


def get_machine(name: str) -> Union[Machine, GpuMachine]:
    """The preset ``name`` names; ``KeyError`` naming the catalogue."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None


def machine_digest(machine: object) -> str:
    """Stable digest of *every* field of a machine description.

    Folded into the schedule-cache key so a schedule computed for one
    machine (or under one machine type's tile hierarchy) can never be
    served for another — the GPU analogue of the extents digest: any
    capacity or weight change invalidates cached schedules instead of
    silently reusing tile sizes derived for different budgets.
    """
    h = hashlib.sha256()
    h.update(f"type:{type(machine).__name__}\0".encode())
    for f in dataclasses.fields(machine):
        h.update(f"{f.name}={getattr(machine, f.name)!r}\0".encode())
    return h.hexdigest()[:16]


def machines_json() -> List[Dict[str, object]]:
    """Machine-readable machine catalogue (``repro list --machines``)."""
    rows: List[Dict[str, object]] = []
    for key in sorted(MACHINES):
        m = MACHINES[key]
        row: Dict[str, object] = {
            "key": key,
            "name": m.name,
            "digest": machine_digest(m),
        }
        if isinstance(m, GpuMachine):
            row.update({
                "num_sms": m.num_sms,
                "warp_width": m.warp_width,
                "shared_mem_per_sm": m.shared_mem_per_sm,
                "register_file_per_sm": m.register_file_per_sm,
                "innermost_tile_size": m.innermost_tile_size,
            })
        else:
            row.update({
                "num_cores": m.num_cores,
                "l1_cache": m.l1_cache,
                "l2_cache": m.l2_cache,
                "innermost_tile_size": m.innermost_tile_size,
            })
        rows.append(row)
    return rows
