"""Structured error taxonomy with stable error codes.

Every failure a public entry point can raise is an instance of
:class:`ReproError` carrying a stable ``code`` string — the contract the
resilience layer (:mod:`repro.resilience`) keys its degradation decisions
on, and the string operators grep for in production logs.  The taxonomy
deliberately multiple-inherits from the builtin exception each error
replaced (``KeyError``, ``ValueError``, ``RuntimeError``) so that callers
written against the old bare exceptions keep working.

========================  =====================================================
code                      raised when
========================  =====================================================
``SCHED_BUDGET``          the DP grouping exceeds its state or wall-clock
                          budget (:class:`GroupingBudgetExceeded`)
``SCHED_INVALID``         no finite-cost grouping exists for the pipeline
``INPUT_MISSING``         a pipeline input image was not supplied
``INPUT_SHAPE``           an input array's shape does not match its image
``INPUT_DTYPE``           an input array's dtype cannot feed its image
``TILE_FAIL``             a tile of a fused group raised during execution
``SCHEDULE_FORMAT``       a serialized schedule has an unknown format version
``SCHEDULE_STALE``        a serialized schedule does not match the pipeline
                          it is being applied to (digest/name/stage mismatch)
``KERNEL_COMPILE_FAIL``   a stage could not be lowered to a compiled NumPy
                          kernel; surfaced as a *warning* by the runtime
                          (the stage falls back to the interpreter)
``KERNEL_FUSE_FAIL``      a fusion group has no native plan (every member
                          would inline away); never surfaced — the group
                          is ineligible for native and walks its stages
``KERNEL_NATIVE_FAIL``    a grouping's native (C) kernels could not be
                          built or loaded — no compiler, a failed build,
                          an unusable artifact directory, a ``.so`` that
                          will not load, a self-check mismatch; surfaced
                          as a *warning* once per cause while the groups
                          run on the kernels they would have without
                          ``native``
``FAULT_INJECTED``        a deliberate failure from the fault-injection
                          harness (:mod:`repro.resilience.faults`)
``SERVE_OVERLOADED``      admission control shed a request because the serve
                          queue is at its depth bound
``SERVE_TIMEOUT``         a request's deadline expired before (or while) the
                          serve layer could execute it
``SERVE_SHUTDOWN``        a request arrived while the service was draining
                          or stopped
``SERVE_UNKNOWN``         a request named a pipeline the serve registry does
                          not know
``SERVE_WORKER_LOST``     a worker process died (crash, OOM kill, SIGKILL)
                          while executing the request and the bounded retry
                          on a replacement worker also failed
``SERVE_WORKER_TIMEOUT``  a worker exceeded the per-request execution
                          timeout and was killed by the supervisor
``SERVE_BODY_TOO_LARGE``  an HTTP request body exceeded the configured
                          size limit (mapped to HTTP 413)
========================  =====================================================
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ReproError",
    "SchedulingError",
    "GroupingBudgetExceeded",
    "NoValidGroupingError",
    "InputError",
    "InputMissingError",
    "InputShapeError",
    "InputDtypeError",
    "ExecutionError",
    "TileExecutionError",
    "ScheduleIOError",
    "ScheduleFormatError",
    "ScheduleStaleError",
    "KernelCompileError",
    "KernelFuseError",
    "KernelNativeError",
    "InjectedFault",
    "ServeError",
    "ServeOverloadedError",
    "ServeTimeoutError",
    "ServeShutdownError",
    "ServeUnknownPipelineError",
    "ServeWorkerLostError",
    "ServeWorkerTimeoutError",
    "ServeBodyTooLargeError",
    "ERROR_CODES",
    "NON_RETRYABLE_CODES",
    "error_code",
    "is_retryable",
]


class ReproError(Exception):
    """Base of the taxonomy: a message plus a stable ``code`` and free-form
    ``context`` mapping (machine-readable details of the failure)."""

    code: str = "REPRO"

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def __str__(self) -> str:  # KeyError would repr() the message
        text = f"[{self.code}] {self.message}"
        if self.context:
            details = ", ".join(
                f"{k}={v!r}" for k, v in sorted(self.context.items())
            )
            text = f"{text} ({details})"
        return text


# -- scheduling -------------------------------------------------------------


class SchedulingError(ReproError, RuntimeError):
    """A scheduling strategy failed to produce a grouping."""

    code = "SCHED_FAIL"


class GroupingBudgetExceeded(SchedulingError):
    """The DP exceeded its state or wall-clock budget — the signal to fall
    back to the bounded incremental variant (paper Sec. 5)."""

    code = "SCHED_BUDGET"


class NoValidGroupingError(SchedulingError):
    """The search found no finite-cost grouping (every candidate violates
    validity or the cost model rejects it)."""

    code = "SCHED_INVALID"


# -- inputs -----------------------------------------------------------------


class InputError(ReproError, ValueError):
    """A pipeline input array fails validation."""

    code = "INPUT"


class InputMissingError(InputError, KeyError):
    """A required input image was not supplied."""

    code = "INPUT_MISSING"


class InputShapeError(InputError):
    """An input array's shape does not match the pipeline's image."""

    code = "INPUT_SHAPE"


class InputDtypeError(InputError):
    """An input array's dtype cannot be converted to the image's type."""

    code = "INPUT_DTYPE"


# -- execution --------------------------------------------------------------


class ExecutionError(ReproError, RuntimeError):
    """Tiled execution failed."""

    code = "EXEC_FAIL"


class TileExecutionError(ExecutionError):
    """One tile of a fused group raised; records which group, which tile,
    and the original cause (also chained as ``__cause__``)."""

    code = "TILE_FAIL"

    def __init__(
        self,
        message: str,
        *,
        group_index: int,
        tile_index: int,
        tile_origin: Optional[tuple] = None,
        cause: Optional[BaseException] = None,
        **context,
    ):
        super().__init__(
            message,
            group_index=group_index,
            tile_index=tile_index,
            tile_origin=tile_origin,
            **context,
        )
        self.group_index = group_index
        self.tile_index = tile_index
        self.tile_origin = tile_origin
        if cause is not None:
            self.__cause__ = cause

    @property
    def cause(self) -> Optional[BaseException]:
        return self.__cause__


# -- serialized schedules ---------------------------------------------------


class ScheduleIOError(ReproError, ValueError):
    """A serialized schedule cannot be applied."""

    code = "SCHEDULE"


class ScheduleFormatError(ScheduleIOError):
    """Unknown serialization format version."""

    code = "SCHEDULE_FORMAT"


class ScheduleStaleError(ScheduleIOError):
    """The schedule was built for a different pipeline structure (digest,
    name, or stage-count mismatch)."""

    code = "SCHEDULE_STALE"


# -- kernel compilation -----------------------------------------------------


class KernelCompileError(ReproError, RuntimeError):
    """A stage's expression tree could not be lowered to a compiled NumPy
    kernel.  Never escapes the runtime: :mod:`repro.runtime.kernelcache`
    converts it into a ``KernelCompileWarning`` and the stage executes on
    the interpreter instead."""

    code = "KERNEL_COMPILE_FAIL"


class KernelFuseError(KernelCompileError):
    """A fusion group has no native plan:
    :func:`repro.runtime.kernelcache.plan_group` raises it (``reason``
    ``degenerate``) when every member stage would inline away.  Never
    escapes the runtime: :mod:`repro.runtime.native` counts the group
    ``ineligible`` and it runs on the stage walk.  ``reason`` is a short
    stable slug."""

    code = "KERNEL_FUSE_FAIL"

    def __init__(self, message: str = "", reason: str = "unsupported",
                 **context):
        super().__init__(message, reason=reason, **context)
        self.reason = reason


class KernelNativeError(KernelCompileError):
    """A grouping's native kernels could not be built, loaded or trusted.
    Never escapes the runtime: :mod:`repro.runtime.native` converts it
    into a ``KernelNativeWarning`` (once per ``reason``) and the groups
    resolve exactly as they would at ``KernelTier.STAGE``.
    ``reason`` is a short stable slug: ``no-compiler``, ``cache-dir``,
    ``build``, ``load``, ``self-check``, ``emit``."""

    code = "KERNEL_NATIVE_FAIL"

    def __init__(self, message: str = "", reason: str = "build",
                 **context):
        super().__init__(message, reason=reason, **context)
        self.reason = reason


# -- fault injection --------------------------------------------------------


class InjectedFault(ReproError, RuntimeError):
    """A deliberate failure from the fault-injection harness — never raised
    in production unless :func:`repro.resilience.faults.inject_faults` is
    active."""

    code = "FAULT_INJECTED"


# -- serving ----------------------------------------------------------------


class ServeError(ReproError, RuntimeError):
    """The serve layer (:mod:`repro.serve`) rejected or failed a request."""

    code = "SERVE"


class ServeOverloadedError(ServeError):
    """Admission control shed the request: the queue is at its depth
    bound.  The stable code clients key their retry/backoff policy on."""

    code = "SERVE_OVERLOADED"


class ServeTimeoutError(ServeError):
    """The request's deadline expired before (or while) it could be
    executed; the serve layer drops it instead of computing a result
    nobody is waiting for."""

    code = "SERVE_TIMEOUT"


class ServeShutdownError(ServeError):
    """The request arrived while the service was draining or stopped.
    Admitted requests are never failed with this code — drain completes
    them."""

    code = "SERVE_SHUTDOWN"


class ServeUnknownPipelineError(ServeError, KeyError):
    """The request named a pipeline the serve registry does not know."""

    code = "SERVE_UNKNOWN"


class ServeWorkerLostError(ServeError):
    """A worker process died while executing the request and the
    supervisor's bounded at-most-once retry on a replacement worker also
    failed.  Retryable: the failure says something about the worker that
    served the request, not about the request itself."""

    code = "SERVE_WORKER_LOST"


class ServeWorkerTimeoutError(ServeError):
    """A worker exceeded the per-request execution timeout
    (``--worker-timeout-s``) and was killed by the supervisor.  The
    request is *not* retried on another worker — a request that hung one
    worker would likely hang its replacement too — but the code is
    classified retryable so clients with larger budgets may try again."""

    code = "SERVE_WORKER_TIMEOUT"


class ServeBodyTooLargeError(ServeError):
    """An HTTP request body exceeded the configured size limit.  The
    front-end rejects it before reading the body, so one oversized
    Content-Length cannot exhaust server memory.  Deterministic, hence
    non-retryable: the same body is over the limit every time."""

    code = "SERVE_BODY_TOO_LARGE"


def _walk(cls: Type[ReproError], into: Dict[str, Type[ReproError]]) -> None:
    into.setdefault(cls.code, cls)
    for sub in cls.__subclasses__():
        _walk(sub, into)


def _registry() -> Dict[str, Type[ReproError]]:
    out: Dict[str, Type[ReproError]] = {}
    for sub in ReproError.__subclasses__():
        _walk(sub, out)
    return out


#: stable code -> exception class (most-derived class wins per code)
ERROR_CODES: Dict[str, Type[ReproError]] = _registry()


def error_code(exc: BaseException) -> str:
    """The stable code of ``exc``; unstructured exceptions map to their
    type name prefixed with ``UNSTRUCTURED:``."""
    if isinstance(exc, ReproError):
        return exc.code
    return f"UNSTRUCTURED:{type(exc).__name__}"


#: codes whose failures are deterministic — retrying the identical
#: attempt cannot succeed, so retry loops must fail fast instead of
#: burning their attempt budget (and masking the real error behind an
#: inflated ``attempts`` count)
NON_RETRYABLE_CODES = frozenset({
    "INPUT",
    "INPUT_MISSING",
    "INPUT_SHAPE",
    "INPUT_DTYPE",
    "SCHEDULE",
    "SCHEDULE_FORMAT",
    "SCHEDULE_STALE",
    "KERNEL_COMPILE_FAIL",
    "KERNEL_FUSE_FAIL",
    "KERNEL_NATIVE_FAIL",
    "SERVE_SHUTDOWN",
    "SERVE_UNKNOWN",
    "SERVE_BODY_TOO_LARGE",
})

#: builtin exception types that signal deterministic programming or
#: lookup failures (a missing buffer key, a bad index, a type mismatch)
#: rather than transient conditions
_NON_RETRYABLE_BUILTINS = (KeyError, IndexError, TypeError)


def is_retryable(exc: BaseException) -> bool:
    """Whether a failure could plausibly succeed on an identical retry.

    Input/validation errors (``INPUT_*``), stale-schedule errors, and
    deterministic builtin failures (``KeyError`` for a missing buffer,
    ``IndexError``, ``TypeError``) are non-retryable: the same inputs
    produce the same failure every time.  Everything else — injected faults, allocation hiccups,
    unclassified runtime errors — is treated as potentially transient.
    """
    if isinstance(exc, ReproError):
        return exc.code not in NON_RETRYABLE_CODES
    return not isinstance(exc, _NON_RETRYABLE_BUILTINS)
