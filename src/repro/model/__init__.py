"""The fusion-cum-tile-size cost model (Sec. 4 of the paper)."""

from .calibrate import CalibrationResult, calibrate_weights
from .cost import INFINITE_COST, CostModel, GroupCost, cpu_group_cost, \
    gpu_group_cost, group_cost
from .machine import AMD_OPTERON, GPU_A100, GPU_V100, XEON_HASWELL, \
    GpuMachine, HalideParams, Machine
from .tilesize import compute_tile_sizes, compute_two_level_tile_sizes, \
    tile_residency_bytes
from .weights import PAPER_TABLE1, CostWeights

__all__ = [
    "calibrate_weights",
    "CalibrationResult",
    "CostModel",
    "GroupCost",
    "group_cost",
    "cpu_group_cost",
    "gpu_group_cost",
    "INFINITE_COST",
    "Machine",
    "GpuMachine",
    "HalideParams",
    "XEON_HASWELL",
    "AMD_OPTERON",
    "GPU_V100",
    "GPU_A100",
    "compute_tile_sizes",
    "compute_two_level_tile_sizes",
    "tile_residency_bytes",
    "CostWeights",
    "PAPER_TABLE1",
]
