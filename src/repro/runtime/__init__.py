"""Execution substrate: reference interpreter, compiled stage kernels,
native (C) group kernels, and the overlapped-tiling executor that drives
them (PolyMage's C++/OpenMP code generation, one step at a time)."""

from .buffers import Buffer, BufferPool, PoolGroup
from .evalexpr import evaluate_cases, evaluate_expr, make_index_grids
from .executor import (
    KernelTier,
    execute_grouping,
    execute_reference,
    grouping_kernels,
    reset_shared_executors_after_fork,
    shared_executor,
    shutdown_shared_executors,
    warm_group_kernels,
)
from .native import KernelNativeWarning
from .kernelcache import (
    GroupKernel,
    KernelCompileWarning,
    KernelFuseWarning,
    StageKernel,
    clear_kernel_cache,
    compile_group_kernel,
    compile_stage_kernel,
    get_group_kernel,
    stage_kernels,
)

__all__ = [
    "Buffer",
    "BufferPool",
    "PoolGroup",
    "evaluate_expr",
    "evaluate_cases",
    "make_index_grids",
    "execute_reference",
    "execute_grouping",
    "KernelTier",
    "shared_executor",
    "shutdown_shared_executors",
    "reset_shared_executors_after_fork",
    "StageKernel",
    "GroupKernel",
    "KernelCompileWarning",
    "KernelFuseWarning",
    "KernelNativeWarning",
    "compile_stage_kernel",
    "compile_group_kernel",
    "get_group_kernel",
    "stage_kernels",
    "grouping_kernels",
    "warm_group_kernels",
    "clear_kernel_cache",
]
