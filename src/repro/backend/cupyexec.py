"""Optional CuPy executor tier — the GPU rung of the degradation ladder.

CuPy is **not** a dependency: this module never imports it at module
scope, and every entry point degrades to the compiled-CPU tiers when it
is absent or broken, warning exactly once per process with the stable
``BACKEND_UNAVAILABLE`` code (:class:`repro.errors.BackendUnavailableError`
carries the same code when a caller demands the tier hard).

The executor itself (:func:`execute_grouping_cupy`) evaluates the
pipeline stage by stage over full domains with device arrays — the
semantic mirror of :func:`repro.runtime.execute_reference` with ``xp``
swapped for NumPy.  Block/warp tiling is a *cost-model and codegen*
concern (a GPU kernel's grid launch IS its tiling); a Python-level tile
loop over device arrays would only add launch overhead, so the rung
executes whole stages and lets the two-level model drive scheduling
decisions instead.  Reductions round-trip through the host interpreter
(PolyMage likewise leaves reductions unoptimised, Sec. 6.2).

Tests drive the whole tier on CPU-only CI by injecting a NumPy-backed
fake module via :func:`set_cupy_for_testing`; the ``REPRO_NO_CUPY``
environment knob forces the unavailable path for fallback A/Bs.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..dsl.entities import Case, Parameter, Variable
from ..dsl.expr import (
    _BINOP_EVAL,
    Access,
    BinOp,
    Cast,
    Const,
    MathCall,
    Select,
    UnaryOp,
)
from ..errors import BackendUnavailableError
from ..obs import METRICS

__all__ = [
    "BackendUnavailableWarning",
    "cupy_available",
    "cupy_unavailable_reason",
    "execute_grouping_cupy",
    "execute_with_backend",
    "set_cupy_for_testing",
    "warn_backend_unavailable_once",
]


class BackendUnavailableWarning(RuntimeWarning):
    """Emitted once per backend when its executor tier is unusable and
    execution falls back to the compiled CPU tier."""


_UNSET = object()
_lock = threading.Lock()
_cupy_override = _UNSET
_cupy_cache: Optional[Tuple[Optional[object], Optional[str]]] = None
_warned_backends = set()


def set_cupy_for_testing(module) -> None:
    """Inject a (fake) ``cupy`` module, or ``None`` to simulate absence;
    pass the :data:`_UNSET` sentinel-free default by calling
    :func:`reset_cupy_for_testing`.  Clears the probe memo and the
    warn-once bookkeeping so each test observes a fresh process state."""
    global _cupy_override, _cupy_cache
    with _lock:
        _cupy_override = module
        _cupy_cache = None
        _warned_backends.clear()


def reset_cupy_for_testing() -> None:
    """Undo :func:`set_cupy_for_testing` (back to the real import probe)."""
    global _cupy_override, _cupy_cache
    with _lock:
        _cupy_override = _UNSET
        _cupy_cache = None
        _warned_backends.clear()


def _probe() -> Tuple[Optional[object], Optional[str]]:
    """``(cupy_module, None)`` when usable, ``(None, reason)`` when not.
    Memoised: the answer cannot change within a process."""
    global _cupy_cache
    with _lock:
        if _cupy_cache is not None:
            return _cupy_cache
        if _cupy_override is not _UNSET:
            if _cupy_override is None:
                _cupy_cache = (None, "cupy absence injected for testing")
            else:
                _cupy_cache = (_cupy_override, None)
            return _cupy_cache
        if os.environ.get("REPRO_NO_CUPY"):
            _cupy_cache = (None, "disabled by REPRO_NO_CUPY")
            return _cupy_cache
        try:
            import cupy  # noqa: F401 - optional, never a dependency
        except Exception as exc:  # ImportError, or a broken install
            _cupy_cache = (None, f"cupy not importable: {exc!r}")
            return _cupy_cache
        try:
            count = cupy.cuda.runtime.getDeviceCount()
        except Exception as exc:
            _cupy_cache = (None, f"no usable CUDA runtime: {exc!r}")
            return _cupy_cache
        if count < 1:
            _cupy_cache = (None, "no CUDA device present")
            return _cupy_cache
        _cupy_cache = (cupy, None)
        return _cupy_cache


def cupy_available() -> bool:
    return _probe()[0] is not None


def cupy_unavailable_reason() -> Optional[str]:
    return _probe()[1]


def warn_backend_unavailable_once(backend_name: str, reason: str) -> None:
    """One ``BACKEND_UNAVAILABLE`` warning per backend per process; the
    fallback itself is silent after that (a serving loop must not spam
    one warning per request)."""
    with _lock:
        if backend_name in _warned_backends:
            return
        _warned_backends.add(backend_name)
    warnings.warn(
        f"[BACKEND_UNAVAILABLE] backend {backend_name!r} executor tier "
        f"unavailable ({reason}); falling back to compiled CPU kernels",
        BackendUnavailableWarning,
        stacklevel=3,
    )
    if METRICS.enabled:
        METRICS.inc(
            "repro_backend_unavailable_total", backend=backend_name,
        )


# -- device-side expression evaluation ---------------------------------------


class _DeviceBuffer:
    """A device array with an index-space origin — the ``xp`` mirror of
    :class:`repro.runtime.buffers.Buffer`, gathering with clipped
    absolute coordinates exactly like the host interpreter."""

    __slots__ = ("data", "origin")

    def __init__(self, data, origin: Tuple[int, ...]):
        self.data = data
        self.origin = origin

    def gather(self, indices, xp):
        idx = []
        data = self.data
        for d, coord in enumerate(indices):
            rel = xp.asarray(coord)
            if self.origin[d]:
                rel = rel - self.origin[d]
            rel = xp.minimum(xp.maximum(rel, 0), data.shape[d] - 1)
            idx.append(rel)
        return data[tuple(idx)]


def _eval_expr(expr, env, buffers: Mapping[str, _DeviceBuffer], xp):
    """Evaluate a DSL expression with ``xp`` device arrays.

    Mirrors :func:`repro.runtime.evalexpr.evaluate_expr` node for node,
    with the NumPy-only constructs (``np.asarray`` on index arrays,
    ``np.select`` over case branches) replaced by ``xp`` equivalents
    that CuPy implements.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Variable, Parameter)):
        return env[expr.name]
    if isinstance(expr, BinOp):
        lhs = _eval_expr(expr.lhs, env, buffers, xp)
        rhs = _eval_expr(expr.rhs, env, buffers, xp)
        return _BINOP_EVAL[expr.op](lhs, rhs)
    if isinstance(expr, UnaryOp):
        return -_eval_expr(expr.operand, env, buffers, xp)
    if isinstance(expr, MathCall):
        args = [_eval_expr(a, env, buffers, xp) for a in expr.args]
        return getattr(xp, _XP_MATH[expr.fn])(*args)
    if isinstance(expr, Select):
        cond = expr.condition.evaluate(
            lambda e: _eval_expr(e, env, buffers, xp)
        )
        t = _eval_expr(expr.true_expr, env, buffers, xp)
        f = _eval_expr(expr.false_expr, env, buffers, xp)
        return xp.where(cond, t, f)
    if isinstance(expr, Cast):
        value = _eval_expr(expr.operand, env, buffers, xp)
        if hasattr(value, "astype"):
            return value.astype(expr.scalar_type.np_dtype)
        return expr.scalar_type.np_dtype.type(value)
    if isinstance(expr, Access):
        buf = buffers.get(expr.producer.name)
        if buf is None:
            raise KeyError(f"no buffer for producer {expr.producer.name!r}")
        indices = [
            xp.asarray(_eval_expr(i, env, buffers, xp)).astype(np.int64)
            for i in expr.indices
        ]
        return buf.gather(indices, xp)
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


#: MathCall fn -> the identically-named ufunc on the xp namespace
_XP_MATH = {
    "min": "minimum",
    "max": "maximum",
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "abs": "abs",
    "pow": "power",
    "floor": "floor",
}


def _eval_stage(pipeline, stage, buffers, xp) -> _DeviceBuffer:
    """Evaluate one (non-reduction) stage over its full domain.

    Case branches resolve through a reversed ``xp.where`` chain — the
    first matching branch wins, unmatched points take the unconditional
    entry (or zero), matching ``np.select`` semantics without relying on
    ``np.select`` itself (CuPy does not provide it).
    """
    bounds = pipeline.domain(stage)
    shape = tuple(hi - lo + 1 for lo, hi in bounds)
    ndim = len(bounds)
    env: Dict[str, object] = dict(pipeline.env)
    for d, (var, (lo, hi)) in enumerate(zip(stage.variables, bounds)):
        grid_shape = [1] * ndim
        grid_shape[d] = hi - lo + 1
        env[var.name] = xp.arange(lo, hi + 1, dtype=np.int64).reshape(
            grid_shape
        )
    conditions, values = [], []
    default = 0
    for entry in stage.defn:
        if isinstance(entry, Case):
            conditions.append(entry.condition.evaluate(
                lambda e: _eval_expr(e, env, buffers, xp)
            ))
            values.append(_eval_expr(entry.expression, env, buffers, xp))
        else:
            default = _eval_expr(entry, env, buffers, xp)
    result = default
    for cond, value in zip(reversed(conditions), reversed(values)):
        result = xp.where(cond, value, result)
    arr = xp.asarray(result)
    if arr.shape != shape:
        arr = xp.broadcast_to(arr, shape)
    arr = xp.ascontiguousarray(arr).astype(
        stage.scalar_type.np_dtype, copy=False
    )
    return _DeviceBuffer(arr, tuple(lo for lo, _ in bounds))


def _to_host(data, xp) -> np.ndarray:
    asnumpy = getattr(xp, "asnumpy", None)
    if asnumpy is not None:
        return asnumpy(data)
    return np.asarray(data)


def execute_grouping_cupy(
    pipeline,
    grouping,
    inputs: Mapping[str, np.ndarray],
    xp=None,
) -> Dict[str, np.ndarray]:
    """Execute ``pipeline`` on the CuPy tier; returns host output arrays.

    ``grouping`` participates for interface parity with
    :func:`repro.runtime.execute_grouping` (and is validated to belong
    to the pipeline); see the module docstring for why the device path
    executes stage-at-a-time rather than walking a Python tile loop.
    Raises :class:`BackendUnavailableError` when no usable CuPy is
    present and no ``xp`` namespace is injected.
    """
    from ..runtime.executor import _compute_stage_full, _input_buffers
    from ..runtime.buffers import Buffer

    if xp is None:
        xp, reason = _probe()
        if xp is None:
            raise BackendUnavailableError(
                f"cupy executor tier unavailable: {reason}",
                backend="gpu", reason=reason,
            )
    if grouping is not None and grouping.pipeline is not pipeline:
        raise ValueError("grouping does not belong to this pipeline")

    host = _input_buffers(pipeline, inputs)  # full INPUT_* validation
    buffers: Dict[str, _DeviceBuffer] = {
        name: _DeviceBuffer(xp.asarray(buf.data), buf.origin)
        for name, buf in host.items()
    }
    for stage in pipeline.stages:
        if getattr(stage, "is_reduction", False):
            # Host round trip: reductions use scatter-accumulate
            # (`np.<op>.at`), which has no CuPy-portable equivalent here.
            host_bufs = {
                name: Buffer(_to_host(b.data, xp), b.origin)
                for name, b in buffers.items()
            }
            out = _compute_stage_full(pipeline, stage, host_bufs)
            buffers[stage.name] = _DeviceBuffer(
                xp.asarray(out.data), out.origin
            )
        else:
            buffers[stage.name] = _eval_stage(pipeline, stage, buffers, xp)
    return {
        o.name: _to_host(buffers[o.name].data, xp)
        for o in pipeline.outputs
    }


def execute_with_backend(
    backend,
    pipeline,
    grouping,
    inputs: Mapping[str, np.ndarray],
    *,
    nthreads: int = 1,
    tile_retries: int = 0,
    options=None,
    executor=None,
    pools=None,
) -> Dict[str, np.ndarray]:
    """Execute on ``backend``'s ladder: its own tier first, then the
    compiled CPU tiers.

    The GPU rung is attempted when the backend's executor tier is
    ``"cupy"``; absence or a device-side failure degrades to
    :func:`repro.runtime.execute_grouping` after one
    ``BACKEND_UNAVAILABLE`` warning.  Input-validation errors
    (``INPUT_*``) always propagate — a malformed request is the
    caller's bug on every tier.
    """
    from ..errors import error_code
    from ..runtime import execute_grouping

    if backend.executor_tier() == "cupy":
        xp, reason = _probe()
        if xp is None:
            warn_backend_unavailable_once(backend.name, reason)
        else:
            try:
                out = execute_grouping_cupy(
                    pipeline, grouping, inputs, xp=xp
                )
                if METRICS.enabled:
                    METRICS.inc(
                        "repro_backend_selected_total",
                        backend=backend.name, tier="cupy",
                    )
                return out
            except Exception as exc:
                if error_code(exc).startswith("INPUT"):
                    raise
                warn_backend_unavailable_once(
                    backend.name, f"device execution failed: {exc!r}"
                )
    out = execute_grouping(
        pipeline, grouping, inputs, nthreads=nthreads,
        tile_retries=tile_retries, options=options,
        executor=executor, pools=pools,
    )
    if METRICS.enabled:
        METRICS.inc(
            "repro_backend_selected_total",
            backend=backend.name, tier="compiled",
        )
    return out
