"""Execution substrate: reference interpreter, compiled stage kernels,
and the overlapped-tiling executor (the stand-in for PolyMage's
C++/OpenMP code generation)."""

from .buffers import Buffer, BufferPool, PoolGroup
from .evalexpr import evaluate_cases, evaluate_expr, make_index_grids
from .executor import (
    ExecOptions,
    execute_grouping,
    execute_reference,
    reset_shared_executors_after_fork,
    shared_executor,
    shutdown_shared_executors,
    warm_group_kernels,
)
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
    "ExecOptions",
    "shared_executor",
    "shutdown_shared_executors",
    "reset_shared_executors_after_fork",
    "StageKernel",
    "GroupKernel",
    "KernelCompileWarning",
    "KernelFuseWarning",
    "compile_stage_kernel",
    "compile_group_kernel",
    "get_group_kernel",
    "stage_kernels",
    "warm_group_kernels",
    "clear_kernel_cache",
]
