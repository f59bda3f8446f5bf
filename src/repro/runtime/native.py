"""Native group kernels: one more :class:`GroupKernel`, in C.

The paper measures generated C++; this is the repo executing on it.  For
every tiled group of a grouping that qualifies, :func:`build_group_kernels`
emits one C entry point that executes **one step** — every materialised
member over its region, live-outs published — from the group's
:class:`~repro.runtime.kernelcache.GroupPlan` (its region slots, inlined
members and direct stores), which the executor's carry, seeding and
step machinery plan the same way they walk the stage-walking adapter's
slots.  A reduction stage — it runs untiled, whole — gets
one entry too: the serial loop nest of
:func:`repro.codegen.cgen._emit_reduction` (``ufunc.at``'s order and
types), over buffers bound from a descriptor.  All of a grouping's
entries go into one translation unit, compiled once per machine and
found again by content (:mod:`repro.runtime.nativestore`).  This is the
one C emitter: :func:`repro.codegen.generate_cpp` prints the same
entries, with a ``pipeline_run`` over baked step tables around them.

**The invariant is digest equality with** ``execute_reference``.  Values
are printed by the typed printer (:mod:`repro.codegen.cexpr`): every
operation in the dtype NumPy computes it in.  A group or reduction is
*eligible* only if every operation in it is in the printer's exact set;
``exp``/``log``/``pow`` keep their NumPy kernels — by rule, without a
warning.  Anything that goes wrong after that (no
compiler, a failed build, an unusable artifact directory, a library that
will not load, a kernel that differs from the stage walk on its
first-use self-check) is one ``KERNEL_NATIVE_FAIL`` warning per cause and
the NumPy kernels.

**Speed** comes from doing per window what a NumPy stage kernel does per
window: the in-bounds test that there chooses ``read_window`` over
``gather`` is evaluated once per stage and step, before the loops.  A
stage whose affine accesses all stay inside their producers' stored
regions runs the *interior* body — plain pointer arithmetic, contiguous
dimension innermost, ``restrict`` everywhere; one that touches a border
runs the same body with every index clamped (what ``Buffer.gather``
does).  Data-dependent indices clamp in both.

A step's descriptor is one ``int64`` row — per buffer ``pointer,
origin…, shape…`` (buffers are C-contiguous — the executor makes inputs
so when they become buffers — so strides follow from the shape), per
region slot and base ``flag, lo, hi, …`` with flag 0 empty / 1 compute /
2 carried.  The executor plans a group's walk once per tiling
(:class:`repro.runtime.executor._WalkPlan`) and hands each chunk's
planned steps to the kernel's ``tabulate``, which packs them into one
immutable step table (:class:`_StepTable`): one descriptor row per
step, every scratch or carried window at a fixed offset into one
per-chunk arena.  A reduction's descriptor is its producers' buffer
slots, then its accumulator's: a step table of one row.

Python runs native code one way only: :func:`pack_program` packs step
tables — the chunks of consecutive native groups of a request, or one
table — into one :class:`_Program` (op list, tables, intermediates and
scratch at fixed offsets of one arena), and :meth:`_Program.run` writes
the request's pointer words into the arena and makes one GIL-releasing
``repro_run_program`` call per thread, claiming chunks in C; each chunk
is one ``repro_run_steps`` over its rows
(:data:`repro.codegen.cexpr.STEP_LOOP`; ``docs/runtime.md``, "One call
per request").  A native group kernel has no per-step ``fn``; a native
reduction's ``fn`` and the first-use self-check run one-op programs.
"""

from __future__ import annotations

import ctypes
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..codegen.cexpr import (
    CBuffer,
    ExprPrinter,
    InexactOp,
    RUNTIME_HELPERS,
    STEP_LOOP,
    ctype_for,
)
from ..codegen.cgen import _Emitter, _emit_reduction
from ..dsl.expr import Access, Const
from ..dsl.function import Function, Reduction
from ..dsl.pipeline import Pipeline
from ..errors import KernelFuseError, KernelNativeError
from ..obs import METRICS
from ..resilience.faults import active_injector, maybe_fail
from . import nativestore
from .buffers import Buffer, BufferPool
from .kernelcache import (
    GroupKernel,
    GroupPlan,
    _affine_index,
    body_accesses,
    plan_group,
)

__all__ = ["KernelNativeWarning", "NativeBuild", "build_group_kernels"]


class KernelNativeWarning(UserWarning):
    """Native kernels were not used (``KERNEL_NATIVE_FAIL``)."""


#: causes already warned about in this process
_WARNED: set = set()


def _warn_once(exc: KernelNativeError) -> None:
    if exc.reason not in _WARNED:
        _WARNED.add(exc.reason)
        warnings.warn(
            f"[{exc.code}] native kernels are not used ({exc.reason}), "
            f"groups run on their NumPy kernels: {exc.message}",
            KernelNativeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Descriptor layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Mat:
    """One materialised member: a buffer slot and a region slot."""

    name: str
    ndim: int
    dtype: np.dtype
    direct: bool
    #: indices (into the layout's mats) of in-group producers it reads
    deps: Tuple[int, ...]
    #: position in ``liveout_names`` when it publishes through a
    #: base-region copy (non-direct live-out), else ``None``
    copy_out: Optional[int]
    #: position among the layout's mats
    index: int
    #: word offsets of its buffer slot, region slot, and (``copy_out``)
    #: out-buffer slot and base slot
    buf: int
    region: int
    out: int = -1
    base: int = -1


@dataclass(frozen=True)
class _Layout:
    """Word offsets of everything in a group's descriptor.  Slots are
    laid out in the order :func:`_make_tabulate` packs them: externals, then
    per member its buffer and region, then per copied live-out its out
    buffer and base."""

    #: out-of-group producers: ``(name, ndim, dtype, word offset)``
    ext: Tuple[Tuple[str, int, np.dtype, int], ...]
    mats: Tuple[_Mat, ...]
    words: int


def _plan_layout(plan: GroupPlan, liveout_names: Sequence[str]) -> _Layout:
    ext: Dict[str, Tuple[str, int, np.dtype, int]] = {}
    mat_pos = {s.name: i for i, s in enumerate(plan.mats)}
    at = 0
    for stage in plan.mats:
        for access in body_accesses(plan.effective[stage.name]):
            name = access.producer.name
            if name not in mat_pos and name not in ext:
                nd = len(access.indices)
                ext[name] = (
                    name, nd, access.producer.scalar_type.np_dtype, at
                )
                at += 1 + 2 * nd
    mats = []
    for stage in plan.mats:
        nd = stage.ndim
        mats.append([stage, at, at + 1 + 2 * nd])
        at += 2 * (1 + 2 * nd)
    out: List[_Mat] = []
    for stage, buf, region in mats:
        name = stage.name
        direct = name in plan.direct
        copy_out = (
            liveout_names.index(name)
            if name in liveout_names and not direct else None
        )
        slots = {}
        if copy_out is not None:
            slots = {"out": at, "base": at + 1 + 2 * stage.ndim}
            at += 2 * (1 + 2 * stage.ndim)
        out.append(_Mat(
            name=name, ndim=stage.ndim, index=len(out),
            dtype=stage.scalar_type.np_dtype, direct=direct,
            deps=tuple(mat_pos[d] for d in plan.deps[name]),
            copy_out=copy_out, buf=buf, region=region, **slots,
        ))
    return _Layout(ext=tuple(ext.values()), mats=tuple(out), words=at)


# ---------------------------------------------------------------------------
# C emission
# ---------------------------------------------------------------------------


class _StepPrinter(ExprPrinter):
    """Prints one member's body with every load as a macro call
    ``LD<k>_<mask>(i0, …)``; the emitter defines the macros twice —
    interior (affine dimensions unclamped) and border (all clamped) —
    around two copies of the same loop nest.  ``mask`` has a ``1`` per
    dimension whose index is affine in one loop variable (or a literal):
    the dimensions the hoisted in-bounds test covers."""

    def __init__(
        self, pipeline: Pipeline, stage: Function, slots, libm: bool
    ):
        super().__init__(
            {}, pipeline.env,
            var_names={v.name: f"v{d}" for d, v in enumerate(stage.variables)},
            libm=libm,
        )
        self.var_dims = {v.name: d for d, v in enumerate(stage.variables)}
        self.slots = slots
        #: macro name -> (producer, per-dimension affine flags)
        self.sites: Dict[str, Tuple[str, Tuple[bool, ...]]] = {}
        #: (producer, dim, loop dim or None, a, k) -> [min c, max c]
        self.windows: Dict[tuple, List[int]] = {}

    def load(self, access: Access, indices: List[str]) -> str:
        name = access.producer.name
        flags = []
        for j, idx in enumerate(access.indices):
            if isinstance(idx, Const) and type(idx.value) is int:
                key, c = (name, j, None, 0, 1), idx.value
            else:
                aff = _affine_index(idx)
                if aff is None or aff[0] not in self.var_dims:
                    flags.append(False)
                    continue
                var, a, c, k = aff
                key = (name, j, self.var_dims[var], a, k)
            flags.append(True)
            span = self.windows.setdefault(key, [c, c])
            span[0], span[1] = min(span[0], c), max(span[1], c)
        macro = f"LD{self.slots[name]}_" + "".join(
            "1" if f else "0" for f in flags
        )
        self.sites[macro] = (name, tuple(flags))
        return f"{macro}({', '.join(indices)})"


#: what a stage's border nest is compiled as: it runs on the few steps
#: whose windows leave a stored region (3 of 197 stage executions on the
#: six benchmarks), so it is built for compile time, not speed — half of
#: a translation unit's ``g++`` seconds otherwise.
_BORDER = "static void __attribute__((noinline, cold, optimize(\"O1\")))"


def _declare(L, p: str, at: int, nd: int, dt, const=True) -> CBuffer:
    """Bind the buffer slot at word ``at`` — pointer, origin, shape — to
    locals named after ``p``."""
    ct = ("const " if const else "") + ctype_for(dt)
    L.append(
        f"    {ct} *restrict const {p} = ({ct} *)(uintptr_t)D[{at}];"
    )
    L.append("    const int64_t " + ", ".join(
        f"{p}o{j} = D[{at + 1 + j}], {p}n{j} = D[{at + 1 + nd + j}]"
        for j in range(nd)
    ) + ";")
    return CBuffer(
        p, [f"{p}o{j}" for j in range(nd)],
        [f"{p}n{j}" for j in range(nd)],
    )


def _emit_group(
    pipeline: Pipeline, plan: GroupPlan, layout: _Layout, symbol: str,
    libm: bool,
) -> str:
    """The C function executing one step of the group, preceded by its
    stages' border nests as functions of their own."""
    borders: List[str] = []
    main: List[str] = [f"void {symbol}(const int64_t *restrict D) {{"]
    slot_of = {name: f"e{i}" for i, (name, *_) in enumerate(layout.ext)}
    slot_of.update({m.name: f"m{i}" for i, m in enumerate(layout.mats)})
    where = {name: (at, nd, dt) for name, nd, dt, at in layout.ext}
    where.update({m.name: (m.buf, m.ndim, m.dtype) for m in layout.mats})

    def bounds(L, at: int, nd: int) -> None:
        L.append("    const int64_t " + ", ".join(
            f"lo{d} = D[{at + 1 + 2 * d}], hi{d} = D[{at + 2 + 2 * d}]"
            for d in range(nd)
        ) + ";")

    for i, (m, stage) in enumerate(zip(layout.mats, plan.mats)):
        nd = m.ndim
        printer = _StepPrinter(pipeline, stage, slot_of, libm)
        body = printer.body(plan.effective[m.name], m.dtype)
        binds: List[str] = []
        bounds(binds, m.region, nd)
        out = _declare(binds, "out", m.buf, nd, m.dtype, const=False)
        bufs = {
            name: _declare(binds, slot_of[name], *where[name])
            for name in sorted({n for n, _ in printer.sites.values()})
        }
        checks = []
        for (name, j, d, a, k), (cmin, cmax) in sorted(
            printer.windows.items(), key=lambda kv: str(kv[0])
        ):
            b = bufs[name]
            if d is None:
                first, last = str(cmin), str(cmax)
            else:
                first, last = (
                    f"{a} * lo{d} + ({cmin})", f"{a} * hi{d} + ({cmax})"
                )
                if k != 1:
                    first = f"r_floordiv_i64({first}, {k})"
                    last = f"r_floordiv_i64({last}, {k})"
            checks.append(f"{first} >= {b.origin[j]}")
            checks.append(f"{last} < {b.origin[j]} + {b.extents[j]}")

        def nest(L, clamp_all: bool) -> None:
            for macro, (name, flags) in sorted(printer.sites.items()):
                args = [f"i{j}" for j in range(len(flags))]
                clamp = [clamp_all or not f for f in flags]
                L.append(
                    f"#define {macro}({', '.join(args)}) "
                    f"{bufs[name].name}"
                    f"[{bufs[name].index_expr(args, clamp)}]"
                )
            pad = "    "
            for d in range(nd - 1):
                L.append(
                    f"{pad}for (int64_t v{d} = lo{d}; v{d} <= hi{d}; "
                    f"++v{d}) {{"
                )
                pad += "  "
            last = nd - 1
            row = out.index_expr(
                [f"v{d}" for d in range(last)] + [out.origin[last]],
                clamp=False,
            )
            L.append(
                f"{pad}const int64_t row = ({row}) - {out.origin[last]};"
            )
            L.append(
                f"{pad}for (int64_t v{last} = lo{last}; v{last} <= "
                f"hi{last}; ++v{last})"
            )
            L.append(f"{pad}  out[row + v{last}] = {body};")
            for d in range(nd - 1):
                pad = pad[:-2]
                L.append(f"{pad}}}")
            for macro in sorted(printer.sites):
                L.append(f"#undef {macro}")

        main.append(f"  if (D[{m.region}] == 1) {{  /* {m.name} */")
        main.extend(binds)
        if checks:
            borders.append(
                f"{_BORDER} {symbol}_border{i}(const int64_t *restrict D) {{"
            )
            borders.extend(binds)
            nest(borders, clamp_all=True)
            borders.append("}")
            main.append(f"    if ({' && '.join(checks)}) {{")
            nest(main, clamp_all=False)
            main.append("    } else {")
            main.append(f"      {symbol}_border{i}(D);")
            main.append("    }")
        else:
            nest(main, clamp_all=True)
        main.append("  }")
        if m.copy_out is not None:
            # publish the base region from the window (computed now or
            # carried) into the full output buffer
            main.append(
                f"  if (D[{m.region}] != 0 && D[{m.base}] == 1) {{"
            )
            bounds(main, m.base, nd)
            src = _declare(main, "src", m.buf, nd, m.dtype)
            dst = _declare(main, "dst", m.out, nd, m.dtype, const=False)
            pad = "    "
            for d in range(nd - 1):
                main.append(
                    f"{pad}for (int64_t v{d} = lo{d}; v{d} <= hi{d}; "
                    f"++v{d})"
                )
                pad += "  "
            at = [f"v{d}" for d in range(nd - 1)] + [f"lo{nd - 1}"]
            main.append(
                f"{pad}memcpy(dst + ({dst.index_expr(at, clamp=False)}), "
                f"src + ({src.index_expr(at, clamp=False)}), "
                f"(size_t)(hi{nd - 1} - lo{nd - 1} + 1) * "
                f"sizeof({ctype_for(m.dtype)}));"
            )
            main.append("  }")
    main.append("}")
    return "\n".join(borders + main) + "\n"


# ---------------------------------------------------------------------------
# The Python side of a kernel
# ---------------------------------------------------------------------------


def _full_region(pipeline: Pipeline, producer) -> Tuple[tuple, tuple]:
    """``(origin, shape)`` of the full buffer the executor keeps
    ``producer`` in: a stage's domain, an input image from zero."""
    if isinstance(producer, Function):
        dom = pipeline.domain(producer)
        return (
            tuple(lo for lo, _ in dom), tuple(hi - lo + 1 for lo, hi in dom)
        )
    shape = pipeline.image_shape(producer)
    return (0,) * len(shape), tuple(shape)


class _StepTable:
    """One chunk of a native group — or a whole native reduction, a
    table of one row — as one op of a :class:`_Program`.

    ``rows`` is immutable: one descriptor per planned step (module
    docstring), except that every pointer word holds an arena offset
    (scratch and carried windows) or nothing (a live-out buffer or an
    out-of-kernel producer, whose origin and shape words hold its full
    buffer's).  :func:`pack_program` copies the rows into a program
    image, which a request patches with the producers' addresses at
    ``ext_ptrs`` of every row and ``ptrs[src]`` added at the flat
    positions ``flat``."""

    __slots__ = (
        "rows", "ext", "ext_ptrs", "flat", "src", "outs", "arena",
        "missing", "first", "step", "runner",
    )

    def __init__(
        self, rows, ext, ext_ptrs, flat, src, outs, arena, missing, first,
        step, runner,
    ):
        self.rows = rows
        #: out-of-kernel producers ``(name, dtype)`` and each one's
        #: pointer column
        self.ext, self.ext_ptrs = ext, ext_ptrs
        #: pointer positions in the flattened rows, and what each points
        #: into: 0 the arena, ``1 + j`` live-out buffer ``outs[j]``
        self.flat, self.src, self.outs = flat, src, outs
        #: arena bytes
        self.arena = arena
        #: the member whose producer's region was empty, if one was
        self.missing = missing
        #: the first schedule tile the chunk walks (0 for a reduction):
        #: the key of its ``"tile"`` fault site
        self.first = first
        #: the step entry's address and the unit's ``repro_run_program``
        #: (both ``None`` in a printed program)
        self.step, self.runner = step, runner


def _make_tabulate(cfunc, runner, layout: _Layout, domains) -> Callable:
    """The ``GroupKernel.tabulate`` of a native group: planned steps
    (:class:`repro.runtime.executor._Step`) to a :class:`_StepTable` of
    ``cfunc``'s rows, for programs run by ``runner``.  ``domains`` holds
    each live-out's and each out-of-kernel producer's full buffer
    ``(origin, shape)``.  Packing touches no library: with ``cfunc`` and
    ``runner`` ``None`` the tables are for printing
    (:func:`repro.codegen.generate_cpp`), not for running."""
    mats = layout.mats
    copied = [m for m in mats if m.copy_out is not None]
    outs = [m.name for m in mats if m.direct or m.copy_out is not None]
    out_src = {name: 1 + j for j, name in enumerate(outs)}
    ext = [(name, dt) for name, _, dt, _ in layout.ext]
    ext_ptrs = np.array([at for *_, at in layout.ext], np.intp)
    head = [
        w for name, *_ in layout.ext for w in (0, *chain(*domains[name]))
    ]
    empty = {nd: (0,) * (2 + 4 * nd) for nd in {m.ndim for m in mats}}
    step_address = ctypes.cast(cfunc, ctypes.c_void_p).value

    def tabulate(steps) -> _StepTable:
        # one fixed arena offset per scratch slot, as large as the slot's
        # largest region in the chunk: a slot computed again (a re-seed)
        # supersedes its previous window, which nothing reads after that
        need = [0] * len(mats)
        for step in steps:
            for m, bounds in zip(mats, step.regions):
                if bounds is not None and not m.direct:
                    size = m.dtype.itemsize
                    for lo, hi in bounds:
                        size *= hi - lo + 1
                    need[m.index] = max(need[m.index], size)
        offset, arena = [], 0
        for size in need:
            offset.append(arena)
            arena += -(-size // 64) * 64
        rows = np.zeros((len(steps), layout.words), np.int64)
        flat: List[int] = []
        src: List[int] = []
        held: Dict[int, tuple] = {}
        missing = None
        for r, step in enumerate(steps):
            words = list(head)

            def pointer(source: int, value: int) -> None:
                flat.append(r * layout.words + len(words))
                src.append(source)
                words.append(value)

            live = [False] * len(mats)
            for i, m in enumerate(mats):
                bounds = step.regions[i]
                if bounds is not None:
                    if missing is None:
                        missing = next(
                            (mats[d].name for d in m.deps if not live[d]),
                            None,
                        )
                    if m.direct:
                        pointer(out_src[m.name], 0)
                        words += chain(*domains[m.name])
                    else:
                        held[i] = (
                            [lo for lo, _ in bounds],
                            [hi - lo + 1 for lo, hi in bounds],
                        )
                        pointer(0, offset[i])
                        words += chain(*held[i])
                    words += (1, *chain(*bounds))
                elif i in step.carried:
                    pointer(0, offset[i])
                    words += (*chain(*held[i]), 2, *(0,) * (2 * m.ndim))
                else:
                    words += empty[m.ndim]
                    continue
                live[i] = True
            for m in copied:
                base = step.bases[m.copy_out]
                if base is None or not live[m.index]:
                    words += empty[m.ndim]
                    continue
                pointer(out_src[m.name], 0)
                words += (*chain(*domains[m.name]), 1, *chain(*base))
            rows[r] = words
        rows.setflags(write=False)
        return _StepTable(
            rows, ext, ext_ptrs, np.array(flat, np.intp),
            np.array(src, np.intp), outs, arena, missing,
            steps[0].tile_index, step_address, runner,
        )

    return tabulate


# ---------------------------------------------------------------------------
# A request's program
# ---------------------------------------------------------------------------


def _aligned(size: int) -> int:
    return -(-size // 64) * 64


class _Program:
    """A *segment* of a request — consecutive groups every chunk of which
    is a :class:`_StepTable` (a native reduction is a group of one) — or
    one table by itself, as one ``repro_run_program`` call per thread
    (:data:`repro.codegen.cexpr.STEP_LOOP`), packed once by
    :func:`pack_program`.  The only way Python runs native code.

    One request arena holds, at fixed 64-byte-aligned offsets: the
    program ``image`` — the op list (per chunk: entry address, rows,
    row count, row words) and every chunk's rows as tabulated — then
    every intermediate full buffer (``inner``: a stage the segment
    writes that is not a pipeline output), then every chunk's scratch.
    What a request adds are pointers: ``ptrs[src]`` added at the image's
    flat positions ``flat``, where ``ptrs`` is the arena base plus
    ``offsets`` (the base itself, each chunk's scratch, each
    intermediate), then the address of each producer the segment reads
    from outside (``ext``), then of each pipeline output it writes
    (``outputs``).  ``ctl`` is the control block's template — per group its
    chunk count, wait and first op; counters and per-op clocks zero.
    ``sites`` holds each op's ``"tile"`` fault-site key,
    ``g<group>t<first tile>a0`` (none in a program packed without group
    numbers)."""

    __slots__ = (
        "tables", "image", "flat", "src", "offsets", "ext", "outputs",
        "inner", "ctl", "nbytes", "width", "runner", "sites",
    )

    def __init__(self, tables, image, flat, src, offsets, ext, outputs,
                 inner, ctl, nbytes, width, runner, sites):
        #: every chunk's table, in op order
        self.tables = tables
        self.image, self.flat, self.src = image, flat, src
        self.offsets = offsets
        #: ``(name, dtype, origin, shape)`` per producer read from outside
        self.ext = ext
        #: ``(name, bounds, dtype)`` per pipeline output written
        self.outputs = outputs
        #: ``(name, first byte, end byte, dtype, shape, origin)`` per
        #: intermediate
        self.inner = inner
        self.ctl = ctl
        #: arena bytes, and the most chunks any group has
        self.nbytes, self.width = nbytes, width
        #: the ``repro_run_program`` entry (``None`` in a printed program)
        self.runner = runner
        self.sites = sites

    def call(self, ctl: np.ndarray, walker: int, keep=None) -> None:
        """One thread's ``repro_run_program`` call.  ``keep`` holds what
        the request's pointers point into, alive for as long as a helper
        may still run chunks."""
        self.runner(ctl.ctypes.data, walker)

    def run(self, buffers, pool, executor, nthreads: int):
        """Run the segment over ``buffers`` (the producers it reads from
        outside) on the walking thread and up to ``nthreads - 1`` helpers
        (no more than its widest group has chunks to share) submitted to
        ``executor``, none of which anyone waits for: the
        call returns when every chunk is done, whoever ran it.  Returns
        the buffers it wrote by stage name — fresh pipeline outputs, and
        arena views for intermediates — each op's ``(start, end)`` in
        ``perf_counter`` seconds, and the arena, taken from ``pool`` and
        owed back to it (:meth:`~repro.runtime.buffers.BufferPool.give`)
        once nothing reads the views.

        Every op is one ``"tile"`` fault-site check, made before
        anything is taken: an injected fault runs no C.  Anything that
        raises before the call leaves nothing behind; after helpers are
        submitted the arena is not given back, since one of them may
        still be writing into it."""
        if active_injector() is not None:
            for site in self.sites:
                maybe_fail("tile", detail=site)
        raw = pool.take((self.nbytes + 64,), np.uint8)
        try:
            start = pool.address(raw)
            base = _aligned(start)
            arena = raw[base - start:]
            words = arena[:self.image.nbytes].view(np.int64)
            words[:] = self.image
            at = len(self.offsets)
            ptrs = np.empty(at + len(self.ext) + len(self.outputs), np.int64)
            ptrs[:at] = self.offsets + base
            keep = [raw]
            for name, dtype, origin, shape in self.ext:
                buf = buffers[name]
                arr = buf.data
                if (arr.dtype != dtype or arr.shape != shape
                        or tuple(buf.origin) != origin
                        or not arr.flags.c_contiguous):
                    # never the executor's buffers (inputs are normalised
                    # when they become buffers); refuse, do not reinterpret
                    raise TypeError(
                        f"buffer {name!r} is {arr.dtype} {arr.shape} at "
                        f"{tuple(buf.origin)}, C-contiguous="
                        f"{arr.flags.c_contiguous}; the program needs "
                        f"C-contiguous {dtype} {shape} at {origin}"
                    )
                ptrs[at] = arr.ctypes.data
                keep.append(arr)
                at += 1
            produced: Dict[str, Buffer] = {}
            for name, bounds, dtype in self.outputs:
                buf = produced[name] = Buffer.for_region(
                    bounds, dtype, zeroed=False
                )
                ptrs[at] = buf.data.ctypes.data
                keep.append(buf.data)
                at += 1
            words[self.flat] += ptrs[self.src]
            ctl = self.ctl.copy()
            ctl[1] = base
        except BaseException:
            pool.give(raw)
            raise
        for _ in range(min(nthreads, self.width) - 1):
            executor.submit(self.call, ctl, 0, keep)
        self.call(ctl, 1)
        for name, start, stop, dtype, shape, origin in self.inner:
            produced[name] = Buffer(
                arena[start:stop].view(dtype).reshape(shape), origin
            )
        clocks = (ctl[2 + 5 * ctl[0]:].reshape(-1, 2) * 1e-9).tolist()
        return produced, clocks, raw


def pack_program(
    pipeline: Pipeline, parts: Sequence[Sequence[_StepTable]],
    groups: Optional[Sequence[int]] = None,
) -> _Program:
    """The :class:`_Program` running ``parts`` — per group, in order, its
    chunks' step tables; ``groups`` numbers each part in its grouping
    for the ops' ``"tile"`` fault-site keys — a program packed without
    has none.  A group waits for the last earlier group that writes
    something it reads, and for every group before that.  A table with a
    producer region left empty raises ``KeyError``, as the NumPy kernels
    do."""
    tables = [t for part in parts for t in part]
    for t in tables:
        if t.missing is not None:
            raise KeyError(t.missing)
    outputs = {s.name for s in pipeline.outputs}
    full = {s.name: s for s in pipeline.stages}
    full.update({img.name: img for img in pipeline.images})
    written = list(dict.fromkeys(name for t in tables for name in t.outs))

    nops = len(tables)
    at = 4 * nops
    starts = []
    for t in tables:
        starts.append(at)
        at += t.rows.size
    image = np.empty(at, np.int64)
    offsets = [0]
    byte = _aligned(image.nbytes)
    scratch = []
    for t in tables:
        scratch.append(len(offsets))
        offsets.append(byte)
        byte += _aligned(t.arena)
    source: Dict[str, int] = {}
    inner = []
    for name in written:
        if name in outputs:
            continue
        stage = full[name]
        origin, shape = _full_region(pipeline, stage)
        dtype = stage.scalar_type.np_dtype
        size = dtype.itemsize * int(np.prod(shape))
        source[name] = len(offsets)
        offsets.append(byte)
        inner.append((name, byte, byte + size, dtype, shape, origin))
        byte += _aligned(size)
    ext = []
    for t in tables:
        for name, dtype in t.ext:
            if name not in source and name not in written:
                source[name] = len(offsets) + len(ext)
                ext.append((name, dtype, *_full_region(pipeline, full[name])))
    outs = []
    for name in written:
        if name in outputs:
            source[name] = len(offsets) + len(ext) + len(outs)
            dom = pipeline.domain(full[name])
            outs.append((name, dom, full[name].scalar_type.np_dtype))

    flat: List[np.ndarray] = []
    src: List[np.ndarray] = []
    for k, (t, start) in enumerate(zip(tables, starts)):
        nrows, words = t.rows.shape
        image[4 * k:4 * k + 4] = (t.step or 0, 8 * start, nrows, words)
        image[start:start + t.rows.size] = t.rows.reshape(-1)
        lookup = np.array([scratch[k]] + [source[n] for n in t.outs],
                          np.intp)
        cols = (np.arange(nrows)[:, None] * words + t.ext_ptrs).reshape(-1)
        flat += [np.array([4 * k + 1]), start + t.flat, start + cols]
        src += [
            np.array([0]), lookup[t.src],
            np.tile(np.array([source[n] for n, _ in t.ext], np.intp), nrows),
        ]

    ctl = np.zeros(2 + 5 * len(parts) + 2 * nops, np.int64)
    ctl[0] = len(parts)
    first, writes = 0, []
    for g, part in enumerate(parts):
        reads = {name for t in part for name, _ in t.ext}
        wait = max(
            (q for q, out in enumerate(writes) if out & reads), default=-1
        )
        ctl[2 + 5 * g:5 + 5 * g] = (len(part), wait, first)
        first += len(part)
        writes.append({name for t in part for name in t.outs})
    image.setflags(write=False)
    return _Program(
        tuple(tables), image,
        np.concatenate(flat).astype(np.intp),
        np.concatenate(src).astype(np.intp),
        np.array(offsets, np.int64), tuple(ext), tuple(outs), tuple(inner),
        ctl, byte, max(len(part) for part in parts), tables[0].runner,
        tuple(
            f"g{gi}t{t.first}a0" for gi, part in zip(groups or (), parts)
            for t in part
        ),
    )


# ---------------------------------------------------------------------------
# Building a grouping's kernels
# ---------------------------------------------------------------------------


@dataclass
class NativeBuild:
    """What :func:`build_group_kernels` made: native kernels by position
    in the ``units`` it was given.  ``unverified`` says the artifact has
    never been checked against the NumPy kernels on this machine (it was
    just built, or a previous process died before recording the check);
    the caller compares and reports through :meth:`commit`."""

    kernels: Dict[int, GroupKernel]
    unverified: bool = False
    _sidecar: Optional[str] = None
    _symbols: Optional[Dict[int, str]] = None

    def commit(self, demoted: Sequence[int]) -> None:
        """Record the self-check's outcome beside the artifact — the
        kernels in ``demoted`` disagreed with the stage walk —
        and drop them, here and on every later load."""
        for i in demoted:
            self.kernels.pop(i, None)
            if METRICS.enabled:
                METRICS.inc("repro_kernel_native_total", result="demoted")
        if demoted:
            _warn_once(KernelNativeError(
                f"{len(demoted)} kernel(s) differed from the stage walk "
                f"on the build-time self-check and were demoted",
                reason="self-check",
            ))
        self.unverified = False
        if self._sidecar is None:
            return
        payload = json.dumps(
            {"demoted": sorted(self._symbols[i] for i in demoted)}
        )
        try:
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(self._sidecar), suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self._sidecar)
        except OSError:
            # a read-only store: the check simply runs again next time
            pass


def _native_group(pipeline: Pipeline, geom, symbol: str, libm: bool):
    """Source of ``geom``'s step entry and what makes a kernel of it.
    ``libm`` admits ``exp``/``log``/``pow`` (:class:`ExprPrinter`): the
    printed program takes them, serving does not."""
    # a singleton mirrors the stage-walking adapter it replaces: one
    # region slot, published through a base-region copy
    plan = plan_group(pipeline, geom, direct_stores=len(geom.stages) > 1)
    layout = _plan_layout(plan, [s.name for s in geom.liveouts])
    domains = {s.name: _full_region(pipeline, s) for s in geom.liveouts}
    for stage in plan.mats:
        for access in body_accesses(plan.effective[stage.name]):
            domains.setdefault(
                access.producer.name,
                _full_region(pipeline, access.producer),
            )

    def make(cfunc, runner) -> GroupKernel:
        return GroupKernel(
            group_names=tuple(s.name for s in geom.stages),
            region_names=plan.region_names,
            liveout_names=tuple(s.name for s in geom.liveouts),
            inlined=plan.inlined,
            direct_stores=plan.direct_stores,
            fn=None,
            native=True,
            tabulate=_make_tabulate(cfunc, runner, layout, domains),
        )

    return _emit_group(pipeline, plan, layout, symbol, libm), make


def _reduction_producers(
    pipeline: Pipeline, stage: Reduction
) -> Dict[str, Access]:
    """The producers a reduction entry's descriptor holds a buffer slot
    for, in slot order (before its accumulator's): each one's first
    access, by name."""
    first: Dict[str, Access] = {}
    for access in pipeline.accesses(stage):
        first.setdefault(access.producer.name, access)
    return first


def _native_reduction(
    pipeline: Pipeline, stage: Reduction, symbol: str, libm: bool
):
    """Source of the entry running all of reduction ``stage`` — its
    producers' buffer slots and then its accumulator's bound from the
    descriptor, around the loop nest
    :func:`~repro.codegen.cgen._emit_reduction` prints — and what makes
    a kernel of it.  ``libm`` as for :func:`_native_group`."""
    lines = [f"void {symbol}(const int64_t *restrict D) {{"]
    bufs: Dict[str, CBuffer] = {}
    ext: List[Tuple[str, np.dtype]] = []
    slots: List[int] = []
    head: List[int] = []
    at = 0
    for name, access in _reduction_producers(pipeline, stage).items():
        nd = len(access.indices)
        dt = access.producer.scalar_type.np_dtype
        bufs[name] = _declare(lines, f"e{len(ext)}", at, nd, dt)
        ext.append((name, dt))
        slots.append(at)
        head += (0, *chain(*_full_region(pipeline, access.producer)))
        at += 1 + 2 * nd
    dtype = stage.scalar_type.np_dtype
    out = _declare(lines, "out", at, stage.ndim, dtype, const=False)
    em = _Emitter()
    em.depth = 1
    _emit_reduction(
        em,
        ExprPrinter(bufs, pipeline.env, var_names={
            v.name: f"r{d}" for d, v in enumerate(stage.reduction_variables)
        }, libm=libm),
        pipeline, stage, out,
    )
    # the accumulator's slot: its pointer is live-out 0's
    rows = np.array(
        [head + [0, *chain(*_full_region(pipeline, stage))]], np.int64
    )
    rows.setflags(write=False)

    def make(cfunc, runner) -> GroupKernel:
        table = _StepTable(
            rows, ext, np.array(slots, np.intp), np.array([at], np.intp),
            np.array([1], np.intp), (stage.name,), 0, None, 0,
            ctypes.cast(cfunc, ctypes.c_void_p).value, runner,
        )
        program = pack_program(pipeline, [[table]])

        def fn(buffers):
            # the accumulator is the program's — a fresh output, or a
            # view of an arena nobody else holds; the C side fills it
            produced, _, _ = program.run(buffers, BufferPool(), None, 1)
            return produced[stage.name]

        return GroupKernel.for_reduction(
            stage.name, fn, native=True, table=table
        )

    return "\n".join(lines) + "\n" + em.text() + "}\n", make


def build_group_kernels(
    pipeline: Pipeline,
    units: Sequence,
    schedule_cache: Optional[str] = None,
) -> NativeBuild:
    """Native kernels for the eligible among ``units`` — a
    :class:`~repro.poly.alignscale.GroupGeometry` per tiled group, a
    :class:`~repro.dsl.function.Reduction` per reduction stage that runs
    untiled — all in one translation unit, built or found in the
    artifact store.

    Never raises: an ineligible unit is simply absent from the result;
    a failure to build or load anything is one ``KERNEL_NATIVE_FAIL``
    warning per cause and an empty result.
    """
    observing = METRICS.enabled
    parts: List[str] = []
    made: Dict[int, Tuple[str, Callable]] = {}
    entries = {"step": 0, "reduce": 0}
    for i, unit in enumerate(units):
        kind, emit = (
            ("reduce", _native_reduction) if isinstance(unit, Reduction)
            else ("step", _native_group)
        )
        symbol = f"repro_{kind}_{entries[kind]}"
        try:
            source, make = emit(pipeline, unit, symbol, libm=False)
        except (InexactOp, KernelFuseError):
            if observing:
                METRICS.inc("repro_kernel_native_total", result="ineligible")
            continue
        except Exception as exc:  # noqa: BLE001 - downgraded to a warning
            names = [s.name for s in getattr(unit, "stages", [unit])]
            _warn_once(KernelNativeError(
                f"emitting {names} of {pipeline.name!r} failed: {exc!r}",
                reason="emit",
            ))
            if observing:
                METRICS.inc("repro_kernel_native_total", result="failed")
            continue
        entries[kind] += 1
        parts.append(source)
        made[i] = (symbol, make)
    if not made:
        return NativeBuild({})
    source = RUNTIME_HELPERS + STEP_LOOP + "".join(parts)
    try:
        lib, path, seconds = nativestore.load(source, schedule_cache)
    except KernelNativeError as exc:
        _warn_once(exc)
        if observing:
            METRICS.inc(
                "repro_kernel_native_total", len(made), result="failed"
            )
        return NativeBuild({})
    if observing:
        METRICS.inc(
            "repro_kernel_native_total", len(made),
            result="cached" if seconds is None else "built",
        )
        if seconds is not None:
            METRICS.observe("repro_kernel_native_build_seconds", seconds)
    sidecar = path[:-len(".so")] + ".json"
    demoted: Optional[set] = None
    try:
        with open(sidecar) as fh:
            demoted = set(json.load(fh)["demoted"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    runner = lib.repro_run_program
    runner.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    runner.restype = None
    kernels: Dict[int, GroupKernel] = {}
    symbols: Dict[int, str] = {}
    for i, (symbol, make) in made.items():
        symbols[i] = symbol
        if demoted is not None and symbol in demoted:
            if observing:
                METRICS.inc("repro_kernel_native_total", result="demoted")
            continue
        kernels[i] = make(getattr(lib, symbol), runner)
    return NativeBuild(
        kernels, unverified=demoted is None, _sidecar=sidecar,
        _symbols=symbols,
    )
